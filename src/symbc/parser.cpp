#include "symbc/parser.hpp"

#include <stdexcept>
#include <string>

namespace symbad::symbc {

namespace {

const char* const kKeywords[] = {"if",     "else",  "while", "for",    "return",
                                 "int",    "void",  "char",  "long",   "short",
                                 "unsigned", "signed", "const", "static", "break",
                                 "continue", "struct", "do",  "switch", "case",
                                 "default", "sizeof", "float", "double"};

bool is_keyword(const std::string& s) {
  for (const char* k : kKeywords) {
    if (s == k) return true;
  }
  return false;
}

class Parser {
public:
  Parser(std::vector<Token> tokens, std::string reconfig)
      : tokens_{std::move(tokens)}, reconfig_{std::move(reconfig)} {}

  Program parse() {
    Program program;
    while (!at_end()) {
      parse_top_level(program);
    }
    return program;
  }

private:
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  [[nodiscard]] bool at_end() const { return peek().kind == TokenKind::end; }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"symbc parser (line " + std::to_string(peek().line) +
                             "): " + what};
  }
  void expect_punct(char c) {
    if (!peek().is_punct(c)) fail(std::string{"expected '"} + c + "'");
    advance();
  }

  // ---- top level -----------------------------------------------------
  void parse_top_level(Program& program) {
    // type tokens (one or more identifiers / '*'), then name.
    if (!consume_type_prefix()) fail("expected declaration");
    if (peek().kind != TokenKind::identifier) fail("expected declarator name");
    const Token name = advance();
    if (peek().is_punct('(')) {
      skip_balanced('(', ')');
      if (peek().is_punct(';')) {  // prototype
        advance();
        return;
      }
      Function fn;
      fn.name = name.text;
      fn.line = name.line;
      expect_punct('{');
      parse_block_body(fn.body);
      if (program.functions.contains(fn.name)) {
        fail("duplicate function '" + fn.name + "'");
      }
      program.functions.emplace(fn.name, std::move(fn));
      return;
    }
    // Global variable: skip to ';'.
    skip_statement_tail();
  }

  /// Consumes leading type keywords/identifiers and '*'. Returns false when
  /// nothing type-like is present.
  bool consume_type_prefix() {
    bool any = false;
    while ((peek().kind == TokenKind::identifier &&
            (is_keyword(peek().text) || peek(1).kind == TokenKind::identifier)) ||
           peek().is_punct('*')) {
      advance();
      any = true;
    }
    return any;
  }

  void skip_balanced(char open, char close) {
    expect_punct(open);
    int depth = 1;
    while (depth > 0) {
      if (at_end()) fail(std::string{"unbalanced '"} + open + "'");
      const Token& t = advance();
      if (t.is_punct(open)) ++depth;
      if (t.is_punct(close)) --depth;
    }
  }

  void skip_statement_tail() {
    while (!at_end() && !peek().is_punct(';')) advance();
    if (!at_end()) advance();  // ';'
  }

  // ---- statements ----------------------------------------------------
  void parse_block_body(Block& out) {
    while (!peek().is_punct('}')) {
      if (at_end()) fail("unterminated block");
      parse_statement(out);
    }
    advance();  // '}'
  }

  void parse_statement(Block& out) {
    if (depth_ == kMaxNestingDepth) {
      fail("statements nested deeper than " + std::to_string(kMaxNestingDepth) +
           " levels");
    }
    ++depth_;
    parse_nested_statement(out);
    --depth_;
  }

  void parse_nested_statement(Block& out) {
    const Token& t = peek();
    if (t.is_punct('{')) {
      advance();
      auto block = std::make_unique<Stmt>();
      block->kind = StmtKind::block;
      block->line = t.line;
      parse_block_body(block->body);
      out.stmts.push_back(std::move(block));
      return;
    }
    if (t.is_identifier("if")) {
      advance();
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::if_else;
      stmt->line = t.line;
      scan_parenthesised_expression(out);  // calls in the condition run first
      parse_statement(stmt->body);
      if (peek().is_identifier("else")) {
        advance();
        stmt->has_else = true;
        parse_statement(stmt->else_body);
      }
      out.stmts.push_back(std::move(stmt));
      return;
    }
    if (t.is_identifier("while")) {
      advance();
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::loop;
      stmt->line = t.line;
      // Condition calls execute before entry and on every iteration.
      Block cond_calls;
      scan_parenthesised_expression(cond_calls);
      for (auto& c : cond_calls.stmts) out.stmts.push_back(clone(*c));
      for (auto& c : cond_calls.stmts) stmt->body.stmts.push_back(std::move(c));
      parse_statement(stmt->body);
      out.stmts.push_back(std::move(stmt));
      return;
    }
    if (t.is_identifier("for")) {
      advance();
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::loop;
      stmt->line = t.line;
      expect_punct('(');
      scan_expression_calls(out, ";");   // init: runs once, before
      advance();                         // ';'
      Block cond_calls;
      scan_expression_calls(cond_calls, ";");
      advance();  // ';'
      for (auto& c : cond_calls.stmts) out.stmts.push_back(clone(*c));
      Block step_calls;
      scan_expression_calls(step_calls, ")");
      advance();  // ')'
      for (auto& c : cond_calls.stmts) stmt->body.stmts.push_back(std::move(c));
      parse_statement(stmt->body);
      for (auto& c : step_calls.stmts) stmt->body.stmts.push_back(std::move(c));
      out.stmts.push_back(std::move(stmt));
      return;
    }
    if (t.is_identifier("return")) {
      advance();
      scan_expression_calls(out, ";");
      expect_punct(';');
      return;
    }
    if (t.is_punct(';')) {
      advance();
      return;
    }
    // Declaration / assignment / expression statement.
    scan_expression_calls(out, ";");
    expect_punct(';');
  }

  [[nodiscard]] static StmtPtr clone(const Stmt& s) {
    auto copy = std::make_unique<Stmt>();
    copy->kind = s.kind;
    copy->line = s.line;
    copy->callee = s.callee;
    copy->context = s.context;
    // Only leaf statements (call / reconfigure) are cloned by the parser.
    return copy;
  }

  // ---- expression scanning --------------------------------------------
  /// `( ... )` with embedded call collection.
  void scan_parenthesised_expression(Block& out) {
    expect_punct('(');
    scan_expression_calls(out, ")");
    expect_punct(')');
  }

  /// Scans tokens up to (not consuming) any delimiter in `delims` at paren
  /// depth 0, appending `call` / `reconfigure` statements for every embedded
  /// invocation.
  void scan_expression_calls(Block& out, const char* delims) {
    int depth = 0;
    while (!at_end()) {
      const Token& t = peek();
      if (depth == 0 && t.kind == TokenKind::punct) {
        for (const char* d = delims; *d != '\0'; ++d) {
          if (t.is_punct(*d)) return;
        }
      }
      if (t.is_punct('(')) {
        ++depth;
        advance();
        continue;
      }
      if (t.is_punct(')')) {
        if (depth == 0) fail("unbalanced ')'");
        --depth;
        advance();
        continue;
      }
      if (t.kind == TokenKind::identifier && !is_keyword(t.text) &&
          peek(1).is_punct('(')) {
        const Token name = advance();  // identifier; '(' handled next loop
        if (name.text == reconfig_) {
          auto stmt = std::make_unique<Stmt>();
          stmt->kind = StmtKind::reconfigure;
          stmt->line = name.line;
          // First argument = context name.
          if (!peek().is_punct('(') || peek(1).kind != TokenKind::identifier) {
            fail("reconfiguration call needs a context identifier argument");
          }
          stmt->context = peek(1).text;
          out.stmts.push_back(std::move(stmt));
        } else {
          auto stmt = std::make_unique<Stmt>();
          stmt->kind = StmtKind::call;
          stmt->line = name.line;
          stmt->callee = name.text;
          out.stmts.push_back(std::move(stmt));
        }
        continue;
      }
      advance();
    }
    fail("unterminated expression");
  }

  std::vector<Token> tokens_;
  std::string reconfig_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< statement nesting of the parse_statement in progress
};

}  // namespace

Program parse_program(const std::string& source, const std::string& reconfig_function) {
  return Parser{tokenize(source), reconfig_function}.parse();
}

}  // namespace symbad::symbc
