#pragma once
// Recursive-descent parser for SymbC's mini-C subset.
//
// Control flow is modelled precisely; expressions are scanned abstractly,
// collecting any function calls they embed (calls in a branch condition
// execute before the branch). `reconfig_function` names the reconfiguration
// procedure (from the configuration information of §3.3); its call sites
// become `reconfigure` statements whose first argument is the context name.

#include <string>
#include <vector>

#include "symbc/ast.hpp"
#include "symbc/lexer.hpp"

namespace symbad::symbc {

/// Deepest statement nesting the parser accepts: a function body's
/// statements sit at depth 1, and every compound block, `if`/`else` branch
/// and loop body adds one (`if (x) { ... }` is two levels). Deeper input is
/// a syntax error, which also bounds the recursion of the checker's walk.
inline constexpr int kMaxNestingDepth = 256;

/// Parses a full translation unit. Throws std::runtime_error with a line
/// reference on syntax errors (including nesting beyond kMaxNestingDepth).
[[nodiscard]] Program parse_program(const std::string& source,
                                    const std::string& reconfig_function);

}  // namespace symbad::symbc
