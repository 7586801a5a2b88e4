#include "ast/parser.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ast/builtin_names.h"
#include "common/strings.h"

namespace chainsplit {
namespace {

enum class TokenKind {
  kAtomName,   // lowercase-initial identifier
  kVariable,   // uppercase- or '_'-initial identifier
  kInt,
  kPunct,      // one of the operator/punctuation spellings
  kError,      // a character no token starts with, or an oversized int
  kEnd,
};

/// A token's text is a view into the source, which outlives the parse.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  int64_t int_value = 0;
  int line = 1;
  int column = 1;
};

inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }
inline bool IsUpper(char c) { return c >= 'A' && c <= 'Z'; }
inline bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || IsUpper(c) || c == '_';
}
inline bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

/// Cuts source text into tokens on demand. A '.' is a clause
/// terminator; list cells are only built through the [..|..] sugar so
/// '.' is never an identifier character here. A bad character yields a
/// kError token and the lexer stays on it, so every later Next()
/// returns the same error token.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token Next() {
    SkipWhitespaceAndComments();
    Token token;
    token.line = line_;
    token.column = static_cast<int>(pos_ - line_start_) + 1;
    if (pos_ >= text_.size()) return token;  // kEnd
    const size_t start = pos_;
    const char c = text_[pos_];
    if (IsDigit(c)) {
      LexInt(&token);
    } else if (IsIdentStart(c)) {
      while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
      token.kind = (IsUpper(c) || c == '_') ? TokenKind::kVariable
                                             : TokenKind::kAtomName;
    } else {
      LexPunct(&token);
    }
    token.text = text_.substr(start, pos_ - start);
    if (token.kind == TokenKind::kError) pos_ = start;
    return token;
  }

 private:
  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++pos_;
        ++line_;
        line_start_ = pos_;
      } else if (c == ' ' || c == '\t' || c == '\r' || c == '\v' ||
                 c == '\f') {
        ++pos_;
      } else if (c == '%') {
        size_t eol = text_.find('\n', pos_);
        pos_ = eol == std::string_view::npos ? text_.size() : eol;
      } else {
        return;
      }
    }
  }

  void LexInt(Token* token) {
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    token->kind = TokenKind::kInt;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) {
      int digit = text_[pos_++] - '0';
      if (token->int_value > (kMax - digit) / 10) {
        token->kind = TokenKind::kError;
      } else {
        token->int_value = token->int_value * 10 + digit;
      }
    }
  }

  void LexPunct(Token* token) {
    token->kind = TokenKind::kPunct;
    // Longest match: the two-character operators first.
    static constexpr std::string_view kTwoChar[] = {":-", "?-", "=<", ">=",
                                                    "\\="};
    std::string_view rest = text_.substr(pos_);
    for (std::string_view op : kTwoChar) {
      if (StartsWith(rest, op)) {
        pos_ += 2;
        return;
      }
    }
    static constexpr std::string_view kOneChar = "().,[]|<>=+-*";
    if (kOneChar.find(text_[pos_]) == std::string_view::npos) {
      token->kind = TokenKind::kError;
    }
    ++pos_;
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_start_ = 0;  // offset of the current line's first byte
  int line_ = 1;
};

/// Recursive-descent parser pulling tokens from a Lexer. The grammar
/// never looks further than one token past the current one, so two
/// tokens of lookahead are all the parser holds. One instance per
/// ParseProgram call; writes clauses into the target Program.
class Parser {
 public:
  Parser(std::string_view text, Program* program)
      : lexer_(text), program_(program) {
    current_ = lexer_.Next();
    next_ = lexer_.Next();
  }

  Status ParseAll() {
    while (!AtEnd()) {
      CS_RETURN_IF_ERROR(ParseClause());
    }
    return Status::Ok();
  }

  StatusOr<TermId> ParseOneTerm() {
    CS_ASSIGN_OR_RETURN(TermId term, ParseTermExpr());
    if (!AtEnd()) return ErrorHere("trailing input after term");
    return term;
  }

  StatusOr<Atom> ParseOneAtom() {
    CS_ASSIGN_OR_RETURN(Atom atom, ParseGoal());
    if (!AtEnd()) return ErrorHere("trailing input after atom");
    return atom;
  }

  StatusOr<Query> ParseOneQuery() {
    if (!TryTakePunct("?-")) return ErrorHere("expected '?-'");
    Query query;
    CS_RETURN_IF_ERROR(ParseGoalList(&query.goals));
    CS_RETURN_IF_ERROR(ExpectPunct("."));
    if (!AtEnd()) return ErrorHere("trailing input after query");
    return query;
  }

 private:
  const Token& Peek() const { return current_; }
  const Token& PeekNext() const { return next_; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  Token Take() {
    Token taken = current_;
    current_ = next_;
    next_ = lexer_.Next();
    return taken;
  }

  bool TryTakePunct(std::string_view text) {
    if (Peek().kind == TokenKind::kPunct && Peek().text == text) {
      Take();
      return true;
    }
    return false;
  }

  Status ExpectPunct(std::string_view text) {
    if (TryTakePunct(text)) return Status::Ok();
    return ErrorHere(StrCat("expected '", text, "'"));
  }

  /// Every parse error goes through here, so a lexer error surfaces the
  /// moment the parser reaches the bad token and not before.
  Status ErrorHere(std::string_view message) const {
    const Token& t = Peek();
    if (t.kind == TokenKind::kError) {
      if (IsDigit(t.text[0])) {
        return InvalidArgumentError(StrCat("integer literal out of range at ",
                                           t.line, ":", t.column, " (near '",
                                           t.text, "')"));
      }
      return InvalidArgumentError(StrCat("unexpected character '", t.text,
                                         "' at ", t.line, ":", t.column));
    }
    return InvalidArgumentError(StrCat(message, " at ", t.line, ":",
                                       t.column, " (near '", t.text, "')"));
  }

  TermPool& pool() { return program_->pool(); }

  Status ParseClause() {
    if (TryTakePunct("?-")) {
      Query query;
      CS_RETURN_IF_ERROR(ParseGoalList(&query.goals));
      CS_RETURN_IF_ERROR(ExpectPunct("."));
      program_->AddQuery(std::move(query));
      return Status::Ok();
    }
    // The head is parsed into a member whose argument vector is reused,
    // so a fact costs no allocation of its own on its way to the
    // staging buffer.
    CS_RETURN_IF_ERROR(ParseGoalInto(&head_));
    if (TryTakePunct(":-")) {
      Rule rule;
      rule.head = head_;
      CS_RETURN_IF_ERROR(ParseGoalList(&rule.body));
      CS_RETURN_IF_ERROR(ExpectPunct("."));
      program_->AddRule(std::move(rule));
      return Status::Ok();
    }
    CS_RETURN_IF_ERROR(ExpectPunct("."));
    if (IsGroundAtom(pool(), head_)) {
      program_->StageFact(head_.pred, head_.args);
    } else {
      program_->AddRule(Rule{head_, {}});
    }
    return Status::Ok();
  }

  Status ParseGoalList(std::vector<Atom>* goals) {
    while (true) {
      goals->emplace_back();
      CS_RETURN_IF_ERROR(ParseGoalInto(&goals->back()));
      if (!TryTakePunct(",")) return Status::Ok();
    }
  }

  StatusOr<Atom> ParseGoal() {
    Atom atom;
    CS_RETURN_IF_ERROR(ParseGoalInto(&atom));
    return atom;
  }

  /// goal := name '(' args ')'            ordinary atom
  ///       | name                         propositional atom
  ///       | term CMP term                comparison
  ///       | term 'is' expr               arithmetic desugaring
  /// Overwrites `*atom`, reusing its argument vector's capacity.
  Status ParseGoalInto(Atom* atom) {
    // An atom goal starts with a lowercase name followed by '(' or a
    // clause separator; anything else is the left operand of an
    // operator goal.
    if (Peek().kind == TokenKind::kAtomName && Peek().text != "is" &&
        !IsOperatorNext()) {
      std::string_view name = Take().text;
      atom->args.clear();
      if (TryTakePunct("(")) {
        while (true) {
          CS_ASSIGN_OR_RETURN(TermId arg, ParseTermExpr());
          atom->args.push_back(arg);
          if (TryTakePunct(")")) break;
          CS_RETURN_IF_ERROR(ExpectPunct(","));
        }
      }
      atom->pred =
          program_->InternPred(name, static_cast<int>(atom->args.size()));
      return Status::Ok();
    }
    CS_ASSIGN_OR_RETURN(TermId lhs, ParseTermExpr());
    CS_ASSIGN_OR_RETURN(*atom, ParseOperatorGoal(lhs));
    return Status::Ok();
  }

  /// True when the next token begins an operator goal, i.e. the
  /// current atom name is really a term operand ("x < y" with x an atom
  /// constant).
  bool IsOperatorNext() const {
    const Token& t = PeekNext();
    if (t.kind == TokenKind::kAtomName) return t.text == "is";
    if (t.kind != TokenKind::kPunct) return false;
    static constexpr std::string_view kOps[] = {"<", ">", "=<", ">=", "=",
                                                "\\="};
    for (std::string_view op : kOps) {
      if (t.text == op) return true;
    }
    return false;
  }

  StatusOr<Atom> ParseOperatorGoal(TermId lhs) {
    if (Peek().kind == TokenKind::kAtomName && Peek().text == "is") {
      Take();
      return ParseIsGoal(lhs);
    }
    if (Peek().kind != TokenKind::kPunct) {
      return ErrorHere("expected comparison operator");
    }
    std::string_view op = Peek().text;
    std::string_view pred_name;
    if (op == "<") {
      pred_name = kPredLt;
    } else if (op == "=<") {
      pred_name = kPredLe;
    } else if (op == ">") {
      pred_name = kPredGt;
    } else if (op == ">=") {
      pred_name = kPredGe;
    } else if (op == "=") {
      pred_name = kPredEq;
    } else if (op == "\\=") {
      pred_name = kPredNe;
    } else {
      return ErrorHere(StrCat("unknown operator '", op, "'"));
    }
    Take();
    CS_ASSIGN_OR_RETURN(TermId rhs, ParseTermExpr());
    Atom atom;
    atom.pred = program_->InternPred(pred_name, 2);
    atom.args = {lhs, rhs};
    return atom;
  }

  /// Desugars `Z is X + Y` -> sum(X,Y,Z); `Z is X - Y` -> sum(Y,Z,X);
  /// `Z is X * Y` -> times(X,Y,Z); `Z is X` -> =(Z,X).
  StatusOr<Atom> ParseIsGoal(TermId result) {
    CS_ASSIGN_OR_RETURN(TermId x, ParseTermExpr());
    Atom atom;
    if (TryTakePunct("+")) {
      CS_ASSIGN_OR_RETURN(TermId y, ParseTermExpr());
      atom.pred = program_->InternPred(kPredSum, 3);
      atom.args = {x, y, result};
    } else if (TryTakePunct("-")) {
      CS_ASSIGN_OR_RETURN(TermId y, ParseTermExpr());
      atom.pred = program_->InternPred(kPredSum, 3);
      atom.args = {y, result, x};  // result = x - y  <=>  x = y + result
    } else if (TryTakePunct("*")) {
      CS_ASSIGN_OR_RETURN(TermId y, ParseTermExpr());
      atom.pred = program_->InternPred(kPredTimes, 3);
      atom.args = {x, y, result};
    } else {
      atom.pred = program_->InternPred(kPredEq, 2);
      atom.args = {result, x};
    }
    return atom;
  }

  /// Parses a term, refusing to nest deeper than kMaxTermDepth: each
  /// level is a few machine-stack frames, and hostile text must get a
  /// Status, not a stack overflow.
  StatusOr<TermId> ParseTermExpr() {
    if (depth_ == kMaxTermDepth) {
      return ErrorHere(StrCat("term nested deeper than ", kMaxTermDepth));
    }
    ++depth_;
    StatusOr<TermId> term = ParseTermLevel();
    --depth_;
    return term;
  }

  /// term := int | '-' int | variable | name | name '(' terms ')' | list
  StatusOr<TermId> ParseTermLevel() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInt: {
        int64_t value = Take().int_value;
        return pool().MakeInt(value);
      }
      case TokenKind::kVariable: {
        std::string_view name = Take().text;
        if (name == "_") return pool().FreshVariable("_");
        return pool().MakeVariable(name);
      }
      case TokenKind::kAtomName: {
        std::string_view name = Take().text;
        if (TryTakePunct("(")) {
          std::vector<TermId> args;
          while (true) {
            CS_ASSIGN_OR_RETURN(TermId arg, ParseTermExpr());
            args.push_back(arg);
            if (TryTakePunct(")")) break;
            CS_RETURN_IF_ERROR(ExpectPunct(","));
          }
          return pool().MakeCompound(name, args);
        }
        return pool().MakeSymbol(name);
      }
      case TokenKind::kPunct:
        if (t.text == "[") return ParseList();
        if (t.text == "-" && PeekNext().kind == TokenKind::kInt) {
          Take();
          int64_t value = Take().int_value;
          return pool().MakeInt(-value);
        }
        break;
      case TokenKind::kError:
      case TokenKind::kEnd:
        break;
    }
    return ErrorHere("expected a term");
  }

  /// list := '[' ']' | '[' terms ']' | '[' terms '|' term ']'
  StatusOr<TermId> ParseList() {
    CS_RETURN_IF_ERROR(ExpectPunct("["));
    if (TryTakePunct("]")) return pool().Nil();
    std::vector<TermId> elements;
    TermId tail = pool().Nil();
    while (true) {
      CS_ASSIGN_OR_RETURN(TermId element, ParseTermExpr());
      elements.push_back(element);
      if (TryTakePunct(",")) continue;
      if (TryTakePunct("|")) {
        CS_ASSIGN_OR_RETURN(tail, ParseTermExpr());
        CS_RETURN_IF_ERROR(ExpectPunct("]"));
        break;
      }
      CS_RETURN_IF_ERROR(ExpectPunct("]"));
      break;
    }
    TermId list = tail;
    for (size_t i = elements.size(); i > 0; --i) {
      list = pool().MakeCons(elements[i - 1], list);
    }
    return list;
  }

  static constexpr int kMaxTermDepth = 1000;

  Lexer lexer_;
  Token current_;
  Token next_;
  Program* program_;
  Atom head_;  // the clause head being parsed (see ParseClause)
  int depth_ = 0;  // ParseTermExpr calls in progress
};

}  // namespace

Status ParseProgram(std::string_view text, Program* program) {
  return Parser(text, program).ParseAll();
}

StatusOr<Query> ParseQueryOnly(std::string_view text, Program* program) {
  return Parser(text, program).ParseOneQuery();
}

StatusOr<TermId> ParseTerm(std::string_view text, Program* program) {
  return Parser(text, program).ParseOneTerm();
}

StatusOr<Atom> ParseAtom(std::string_view text, Program* program) {
  return Parser(text, program).ParseOneAtom();
}

}  // namespace chainsplit
