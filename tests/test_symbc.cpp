// Tests for SymbC: mini-C lexer/parser and the reconfiguration-consistency
// analysis (src/symbc) plus the case-study SW sources (src/app).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "app/sw_source.hpp"
#include "support/test_util.hpp"
#include "symbc/checker.hpp"
#include "symbc/lexer.hpp"
#include "symbc/parser.hpp"

namespace symbc = symbad::symbc;
namespace app = symbad::app;

// ----------------------------------------------------------------- lexer

TEST(SymbcLexer, TokenisesIdentifiersNumbersPunct) {
  const auto tokens = symbc::tokenize("int x = 42; f(x);");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_TRUE(tokens[2].is_punct('='));
  EXPECT_EQ(tokens[3].kind, symbc::TokenKind::number);
  EXPECT_EQ(tokens.back().kind, symbc::TokenKind::end);
}

TEST(SymbcLexer, SkipsCommentsAndPreprocessor) {
  const auto tokens = symbc::tokenize(
      "#include <stdio.h>\n// line comment\n/* block\ncomment */ int y;");
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[0].line, 4);
}

TEST(SymbcLexer, UnterminatedCommentThrows) {
  EXPECT_THROW((void)symbc::tokenize("/* never closed"), std::runtime_error);
}

TEST(SymbcLexer, TracksLineNumbers) {
  const auto tokens = symbc::tokenize("a\nb\n\nc");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 4);
}

TEST(SymbcLexer, RandomTokenStreamsRoundTrip) {
  // Lexer fuzz: any separator-delimited stream of identifiers, numbers and
  // punctuation must come back token-for-token, whatever whitespace or
  // comments sit between them.
  auto rng = symbad::test::rng("symbc_lexer_fuzz");
  const char* idents[] = {"x", "foo", "fpga_load", "_tmp9", "if0"};
  const char* puncts[] = {"(", ")", "{", "}", ";", ",", "=", "+", "<"};
  const char* seps[] = {" ", "\n", "\t", "/* c */ "};
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<std::string> expected;
    std::string source;
    const int len = static_cast<int>(rng.range(1, 40));
    for (int i = 0; i < len; ++i) {
      std::string text;
      switch (rng.below(3)) {
        case 0: text = idents[rng.below(5)]; break;
        case 1: text = std::to_string(rng.below(100000)); break;
        default: text = puncts[rng.below(9)]; break;
      }
      source += text;
      source += seps[rng.below(4)];
      expected.push_back(std::move(text));
    }
    const auto tokens = symbc::tokenize(source);
    ASSERT_EQ(tokens.size(), expected.size() + 1) << source;  // + end marker
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(tokens[i].text, expected[i]) << source;
    }
    EXPECT_EQ(tokens.back().kind, symbc::TokenKind::end);
  }
}

// ---------------------------------------------------------------- parser

TEST(SymbcParser, ParsesFunctionsAndCalls) {
  const auto program = symbc::parse_program(
      "void f() { g(); h(1, 2); }\nint main() { f(); return 0; }", "fpga_load");
  ASSERT_TRUE(program.has_function("f"));
  ASSERT_TRUE(program.has_function("main"));
  const auto& f = program.functions.at("f");
  ASSERT_EQ(f.body.stmts.size(), 2u);
  EXPECT_EQ(f.body.stmts[0]->kind, symbc::StmtKind::call);
  EXPECT_EQ(f.body.stmts[0]->callee, "g");
  EXPECT_EQ(f.body.stmts[1]->callee, "h");
}

TEST(SymbcParser, RecognisesReconfigureCalls) {
  const auto program =
      symbc::parse_program("void main() { fpga_load(config1); run(); }", "fpga_load");
  const auto& body = program.functions.at("main").body;
  ASSERT_EQ(body.stmts.size(), 2u);
  EXPECT_EQ(body.stmts[0]->kind, symbc::StmtKind::reconfigure);
  EXPECT_EQ(body.stmts[0]->context, "config1");
}

TEST(SymbcParser, ParsesControlFlow) {
  const auto program = symbc::parse_program(
      "void main() { if (x) { a(); } else { b(); } while (y) { c(); } }", "fpga_load");
  const auto& body = program.functions.at("main").body;
  ASSERT_EQ(body.stmts.size(), 2u);
  EXPECT_EQ(body.stmts[0]->kind, symbc::StmtKind::if_else);
  EXPECT_TRUE(body.stmts[0]->has_else);
  EXPECT_EQ(body.stmts[1]->kind, symbc::StmtKind::loop);
}

TEST(SymbcParser, CollectsCallsEmbeddedInExpressions) {
  const auto program = symbc::parse_program(
      "void main() { int d = dist(a) + dist(b); if (check(d)) { act(); } }",
      "fpga_load");
  const auto& body = program.functions.at("main").body;
  // dist, dist, check (condition call precedes the if), then the if.
  ASSERT_EQ(body.stmts.size(), 4u);
  EXPECT_EQ(body.stmts[0]->callee, "dist");
  EXPECT_EQ(body.stmts[1]->callee, "dist");
  EXPECT_EQ(body.stmts[2]->callee, "check");
  EXPECT_EQ(body.stmts[3]->kind, symbc::StmtKind::if_else);
}

TEST(SymbcParser, ForLoopDesugarsToLoop) {
  const auto program = symbc::parse_program(
      "void main() { for (i = 0; cond(i); step(i)) { body(); } }", "fpga_load");
  const auto& body = program.functions.at("main").body;
  // cond() runs before the loop, then the loop (containing cond, body, step).
  ASSERT_EQ(body.stmts.size(), 2u);
  EXPECT_EQ(body.stmts[0]->callee, "cond");
  EXPECT_EQ(body.stmts[1]->kind, symbc::StmtKind::loop);
  EXPECT_EQ(body.stmts[1]->body.stmts.size(), 3u);
}

TEST(SymbcParser, SyntaxErrorsThrowWithLine) {
  EXPECT_THROW((void)symbc::parse_program("void f( {", "fpga_load"),
               std::runtime_error);
  EXPECT_THROW((void)symbc::parse_program("void f() { if x) {} }", "fpga_load"),
               std::runtime_error);
}

TEST(SymbcParser, NestingDepthIsBounded) {
  const auto nested_ifs = [](int levels) {
    std::string src = "void main() {\n";
    for (int i = 0; i < levels; ++i) src += "if (x) {\n";
    src += "fpga_load(config2); root();\n";
    for (int i = 0; i < levels; ++i) src += "}\n";
    return src + "}\n";
  };
  symbc::ConfigSpec spec;
  spec.contexts["config2"] = {"root"};
  // 20,000 levels used to overflow the recursive-descent stack; now it is
  // an ordinary line-tagged syntax error.
  try {
    (void)symbc::check_source(nested_ifs(20000), spec);
    FAIL() << "20,000-deep nesting parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("symbc parser (line "), std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find("nested deeper"), std::string::npos) << e.what();
  }
  // Each `if (x) {` is two levels (the if and its compound body); the
  // deepest nesting that fits still parses and checks.
  const auto deepest = nested_ifs(symbc::kMaxNestingDepth / 2 - 1);
  const auto result = symbc::check_source(deepest, spec);
  EXPECT_TRUE(result.consistent);
  ASSERT_EQ(result.certificate.size(), 1u);
  EXPECT_EQ(result.certificate[0].function, "root");
  EXPECT_THROW((void)symbc::check_source(nested_ifs(symbc::kMaxNestingDepth / 2 + 1), spec),
               std::runtime_error);
}

TEST(SymbcParser, PrototypesAndGlobalsSkipped) {
  const auto program = symbc::parse_program(
      "int counter;\nvoid helper();\nvoid main() { helper(); }", "fpga_load");
  EXPECT_EQ(program.functions.size(), 1u);
  EXPECT_TRUE(program.has_function("main"));
}

// --------------------------------------------------------------- checker

namespace {

symbc::ConfigSpec two_context_spec() {
  symbc::ConfigSpec spec;
  spec.contexts["config1"] = {"dist"};
  spec.contexts["config2"] = {"root"};
  return spec;
}

}  // namespace

TEST(SymbcChecker, CertifiesStraightLineCorrectProgram) {
  const auto result = symbc::check_source(
      "void main() { fpga_load(config2); root(); fpga_load(config1); dist(); }",
      two_context_spec());
  EXPECT_TRUE(result.consistent);
  ASSERT_EQ(result.certificate.size(), 2u);
  EXPECT_EQ(result.certificate[0].function, "root");
  EXPECT_TRUE(result.violations.empty());
}

TEST(SymbcChecker, DetectsCallBeforeAnyLoad) {
  const auto result =
      symbc::check_source("void main() { root(); }", two_context_spec());
  EXPECT_FALSE(result.consistent);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].function, "root");
  EXPECT_EQ(result.violations[0].loaded_context, symbc::kNoContext);
}

TEST(SymbcChecker, DetectsWrongContext) {
  const auto result = symbc::check_source(
      "void main() { fpga_load(config1); root(); }", two_context_spec());
  EXPECT_FALSE(result.consistent);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].loaded_context, "config1");
  EXPECT_GT(result.violations[0].loaded_at_line, 0);
}

TEST(SymbcChecker, BranchesMergePossibilities) {
  // On one path config2 is loaded, on the other config1: calling root() after
  // the merge is only *possibly* wrong — must be reported.
  const auto result = symbc::check_source(
      "void main() {"
      "  if (c) { fpga_load(config2); } else { fpga_load(config1); }"
      "  root();"
      "}",
      two_context_spec());
  EXPECT_FALSE(result.consistent);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].loaded_context, "config1");
}

TEST(SymbcChecker, BothBranchesLoadingCorrectContextIsFine) {
  const auto result = symbc::check_source(
      "void main() {"
      "  if (c) { fpga_load(config2); } else { fpga_load(config2); }"
      "  root();"
      "}",
      two_context_spec());
  EXPECT_TRUE(result.consistent);
}

TEST(SymbcChecker, LoopBodyStateFlowsBackAround) {
  // First iteration is fine; the second sees config1 from the loop tail.
  const auto result = symbc::check_source(
      "void main() {"
      "  fpga_load(config2);"
      "  while (more()) {"
      "    root();"
      "    fpga_load(config1);"
      "    dist();"
      "  }"
      "}",
      two_context_spec());
  EXPECT_FALSE(result.consistent);
  bool found = false;
  for (const auto& v : result.violations) {
    if (v.function == "root" && v.loaded_context == "config1") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SymbcChecker, ReloadInsideLoopIsConsistent) {
  const auto result = symbc::check_source(
      "void main() {"
      "  while (more()) {"
      "    fpga_load(config2); root();"
      "    fpga_load(config1); dist();"
      "  }"
      "}",
      two_context_spec());
  EXPECT_TRUE(result.consistent);
}

TEST(SymbcChecker, InterproceduralAnalysis) {
  const auto result = symbc::check_source(
      "void use_root() { root(); }"
      "void main() { fpga_load(config2); use_root(); }",
      two_context_spec());
  EXPECT_TRUE(result.consistent);

  const auto bad = symbc::check_source(
      "void use_root() { root(); }"
      "void main() { fpga_load(config1); use_root(); }",
      two_context_spec());
  EXPECT_FALSE(bad.consistent);
}

TEST(SymbcChecker, FunctionSettingContextPropagates) {
  const auto result = symbc::check_source(
      "void prepare() { fpga_load(config2); }"
      "void main() { prepare(); root(); }",
      two_context_spec());
  EXPECT_TRUE(result.consistent);
}

TEST(SymbcChecker, RecursionWidensConservatively) {
  // Recursive function: the analysis must terminate and err on the safe
  // side (reporting a possible violation).
  const auto result = symbc::check_source(
      "void spin() { if (c) { fpga_load(config1); spin(); } }"
      "void main() { fpga_load(config2); spin(); root(); }",
      two_context_spec());
  EXPECT_FALSE(result.consistent);
}

TEST(SymbcChecker, UnknownContextThrows) {
  EXPECT_THROW((void)symbc::check_source("void main() { fpga_load(config9); }",
                                         two_context_spec()),
               std::invalid_argument);
}

TEST(SymbcChecker, MissingEntryThrows) {
  EXPECT_THROW((void)symbc::check_source("void f() {}", two_context_spec()),
               std::invalid_argument);
}

// ------------------------------------------------- case-study SW sources

TEST(FaceSw, CorrectProgramCertified) {
  const auto result =
      symbc::check_source(app::face_sw_correct(), app::face_config_spec());
  EXPECT_TRUE(result.consistent) << (result.violations.empty()
                                         ? ""
                                         : result.violations[0].to_string());
  EXPECT_GE(result.certificate.size(), 2u);
}

TEST(FaceSw, MissingReloadCaught) {
  const auto result =
      symbc::check_source(app::face_sw_missing_reload(), app::face_config_spec());
  EXPECT_FALSE(result.consistent);
  bool root_violation = false;
  for (const auto& v : result.violations) {
    if (v.function == "root_accel" && v.loaded_context == "config1") {
      root_violation = true;
    }
  }
  EXPECT_TRUE(root_violation);
}

TEST(FaceSw, WrongContextCaught) {
  const auto result =
      symbc::check_source(app::face_sw_wrong_context(), app::face_config_spec());
  EXPECT_FALSE(result.consistent);
}

TEST(FaceSw, CallBeforeLoadCaught) {
  const auto result =
      symbc::check_source(app::face_sw_call_before_load(), app::face_config_spec());
  EXPECT_FALSE(result.consistent);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_EQ(result.violations[0].loaded_context, symbc::kNoContext);
}

TEST(FaceSw, ScaledProgramStaysConsistent) {
  const auto result = symbc::check_source(app::face_sw_scaled(30),
                                          app::face_config_spec());
  EXPECT_TRUE(result.consistent);
}
