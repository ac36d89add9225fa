#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/lexer.h"

namespace acquire {

namespace {

// The deepest an expression may nest: every '(' and unary '-' descends one
// level, and so does every further term of a '+'/'-' or '*'/'/' chain,
// which builds a left-deep tree as tall as the chain is long. The parser
// recurses and the binder walks the built tree at that depth, so SQL from
// the wire must not choose it.
constexpr int kMaxExprDepth = 256;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<AstQuery> ParseQuery();

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }

  Status ExpectSymbol(const char* sym) {
    if (!Peek().IsSymbol(sym)) {
      return Error(std::string("expected '") + sym + "'");
    }
    Advance();
    return Status::OK();
  }

  Status ExpectKeyword(const char* kw) {
    if (!Peek().IsKeyword(kw)) {
      return Error(std::string("expected ") + kw);
    }
    Advance();
    return Status::OK();
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(StringFormat(
        "%s at offset %zu (near '%s')", message.c_str(), Peek().offset,
        Peek().text.c_str()));
  }

  // Enters one more expression level; callers restore depth_ on success.
  Status Descend() {
    if (++depth_ > kMaxExprDepth) {
      return Error(StringFormat("expression nested deeper than %d levels",
                                kMaxExprDepth));
    }
    return Status::OK();
  }

  bool PeekIsCompareOp() const {
    const Token& t = Peek();
    return t.IsSymbol("=") || t.IsSymbol("!=") || t.IsSymbol("<") ||
           t.IsSymbol("<=") || t.IsSymbol(">") || t.IsSymbol(">=");
  }

  Result<CompareOp> ParseCompareOp() {
    const Token& t = Peek();
    CompareOp op;
    if (t.IsSymbol("=")) {
      op = CompareOp::kEq;
    } else if (t.IsSymbol("!=")) {
      op = CompareOp::kNe;
    } else if (t.IsSymbol("<")) {
      op = CompareOp::kLt;
    } else if (t.IsSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (t.IsSymbol(">")) {
      op = CompareOp::kGt;
    } else if (t.IsSymbol(">=")) {
      op = CompareOp::kGe;
    } else {
      return Error("expected comparison operator");
    }
    Advance();
    return op;
  }

  Result<std::string> ParseColumnRef() {
    if (Peek().kind != TokenKind::kIdent) return Error("expected column name");
    std::string name = Advance().text;
    if (Peek().IsSymbol(".")) {
      Advance();
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected column name after '.'");
      }
      name += "." + Advance().text;
    }
    return name;
  }

  Result<AstLiteral> ParseLiteral() {
    const Token& t = Peek();
    AstLiteral lit;
    if (t.kind == TokenKind::kNumber) {
      lit.is_number = true;
      lit.number = t.number;
      Advance();
      return lit;
    }
    if (t.kind == TokenKind::kString) {
      lit.is_number = false;
      lit.text = t.text;
      Advance();
      return lit;
    }
    return Error("expected literal");
  }

  /// Merges two operands under an arithmetic operator into an expression
  /// operand, concatenating the referenced-column lists.
  static AstOperand Combine(ArithOp op, const AstOperand& lhs,
                            const AstOperand& rhs) {
    AstOperand out;
    out.kind = AstOperand::Kind::kExpr;
    out.expr = Expr::Arith(op, lhs.ToExpr(), rhs.ToExpr());
    out.columns = lhs.columns;
    out.columns.insert(out.columns.end(), rhs.columns.begin(),
                       rhs.columns.end());
    return out;
  }

  // factor := ['-'] (number | string | column | '(' arith ')')
  Result<AstOperand> ParseFactor() {
    if (Peek().IsSymbol("-")) {
      Advance();
      ACQ_RETURN_IF_ERROR(Descend());
      ACQ_ASSIGN_OR_RETURN(AstOperand inner, ParseFactor());
      --depth_;
      if (inner.is_literal() && inner.literal.is_number) {
        inner.literal.number = -inner.literal.number;
        return inner;
      }
      AstOperand zero;
      zero.kind = AstOperand::Kind::kLiteral;
      zero.literal.is_number = true;
      zero.literal.number = 0.0;
      return Combine(ArithOp::kSub, zero, inner);
    }
    if (Peek().IsSymbol("(")) {
      Advance();
      ACQ_RETURN_IF_ERROR(Descend());
      ACQ_ASSIGN_OR_RETURN(AstOperand inner, ParseOperand());
      --depth_;
      ACQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      // Parenthesized operands are always expression operands so the
      // chained-range detection never misreads them.
      if (!inner.is_expr()) {
        AstOperand wrapped;
        wrapped.kind = AstOperand::Kind::kExpr;
        wrapped.expr = inner.ToExpr();
        wrapped.columns = inner.columns;
        return wrapped;
      }
      return inner;
    }
    if (Peek().kind == TokenKind::kIdent && !Peek().IsKeyword("NOREFINE")) {
      AstOperand operand;
      operand.kind = AstOperand::Kind::kColumn;
      ACQ_ASSIGN_OR_RETURN(operand.column, ParseColumnRef());
      operand.columns = {operand.column};
      return operand;
    }
    AstOperand operand;
    operand.kind = AstOperand::Kind::kLiteral;
    ACQ_ASSIGN_OR_RETURN(operand.literal, ParseLiteral());
    return operand;
  }

  // term := factor (('*' | '/') factor)*
  Result<AstOperand> ParseTerm() {
    const int depth = depth_;
    ACQ_ASSIGN_OR_RETURN(AstOperand lhs, ParseFactor());
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/")) {
      ArithOp op = Peek().IsSymbol("*") ? ArithOp::kMul : ArithOp::kDiv;
      Advance();
      ACQ_RETURN_IF_ERROR(Descend());
      ACQ_ASSIGN_OR_RETURN(AstOperand rhs, ParseFactor());
      lhs = Combine(op, lhs, rhs);
    }
    depth_ = depth;
    return lhs;
  }

  // operand := term (('+' | '-') term)*
  Result<AstOperand> ParseOperand() {
    const int depth = depth_;
    ACQ_ASSIGN_OR_RETURN(AstOperand lhs, ParseTerm());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      ArithOp op = Peek().IsSymbol("+") ? ArithOp::kAdd : ArithOp::kSub;
      Advance();
      ACQ_RETURN_IF_ERROR(Descend());
      ACQ_ASSIGN_OR_RETURN(AstOperand rhs, ParseTerm());
      lhs = Combine(op, lhs, rhs);
    }
    depth_ = depth;
    return lhs;
  }

  Result<AstPredicate> ParsePredicate();
  Result<AstPredicate> ParsePredicateImpl(bool parenthesized);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // expression levels enclosing the current token
};

Result<AstPredicate> Parser::ParsePredicate() {
  // A leading '(' is ambiguous: "(a < 10)" wraps the predicate while
  // "(a - b) / 2 < 1" starts an arithmetic operand. Try the predicate
  // reading first and backtrack into the operand reading on failure.
  if (Peek().IsSymbol("(")) {
    const size_t saved = pos_;
    Result<AstPredicate> attempt = ParsePredicateImpl(/*parenthesized=*/true);
    if (attempt.ok()) return attempt;
    pos_ = saved;
    depth_ = 0;  // a failed attempt leaves it wherever it stopped
  }
  return ParsePredicateImpl(/*parenthesized=*/false);
}

Result<AstPredicate> Parser::ParsePredicateImpl(bool parenthesized) {
  AstPredicate pred;
  if (parenthesized) Advance();  // consume '('

  ACQ_ASSIGN_OR_RETURN(AstOperand first, ParseOperand());

  if (first.is_column() && Peek().IsKeyword("BETWEEN")) {
    Advance();
    ACQ_ASSIGN_OR_RETURN(AstLiteral lo, ParseLiteral());
    ACQ_RETURN_IF_ERROR(ExpectKeyword("AND"));
    ACQ_ASSIGN_OR_RETURN(AstLiteral hi, ParseLiteral());
    if (!lo.is_number || !hi.is_number) {
      return Error("BETWEEN bounds must be numeric");
    }
    pred.kind = AstPredicate::Kind::kBetween;
    pred.column = first.column;
    pred.lo = lo.number;
    pred.hi = hi.number;
  } else if (first.is_column() && Peek().IsKeyword("IN")) {
    Advance();
    ACQ_RETURN_IF_ERROR(ExpectSymbol("("));
    pred.kind = AstPredicate::Kind::kIn;
    pred.column = first.column;
    for (;;) {
      ACQ_ASSIGN_OR_RETURN(AstLiteral lit, ParseLiteral());
      pred.in_list.push_back(std::move(lit));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    ACQ_RETURN_IF_ERROR(ExpectSymbol(")"));
  } else {
    ACQ_ASSIGN_OR_RETURN(CompareOp op, ParseCompareOp());
    ACQ_ASSIGN_OR_RETURN(AstOperand second, ParseOperand());

    if (PeekIsCompareOp()) {
      // Chained range, e.g. "25 <= age <= 35" (query Q1).
      ACQ_ASSIGN_OR_RETURN(CompareOp op2, ParseCompareOp());
      ACQ_ASSIGN_OR_RETURN(AstOperand third, ParseOperand());
      bool ascending = (op == CompareOp::kLe || op == CompareOp::kLt) &&
                       (op2 == CompareOp::kLe || op2 == CompareOp::kLt);
      bool descending = (op == CompareOp::kGe || op == CompareOp::kGt) &&
                        (op2 == CompareOp::kGe || op2 == CompareOp::kGt);
      if (!(ascending || descending) || !second.is_column() ||
          !first.is_literal() || !third.is_literal() ||
          !first.literal.is_number || !third.literal.is_number) {
        return Error("malformed chained range predicate");
      }
      pred.kind = AstPredicate::Kind::kBetween;
      pred.column = second.column;
      pred.lo = ascending ? first.literal.number : third.literal.number;
      pred.hi = ascending ? third.literal.number : first.literal.number;
    } else {
      pred.kind = AstPredicate::Kind::kComparison;
      pred.lhs = std::move(first);
      pred.op = op;
      pred.rhs = std::move(second);
    }
  }

  if (parenthesized) ACQ_RETURN_IF_ERROR(ExpectSymbol(")"));
  if (Peek().IsKeyword("NOREFINE")) {
    Advance();
    pred.norefine = true;
  }
  return pred;
}

Result<AstQuery> Parser::ParseQuery() {
  AstQuery query;
  ACQ_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  ACQ_RETURN_IF_ERROR(ExpectSymbol("*"));
  ACQ_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  for (;;) {
    if (Peek().kind != TokenKind::kIdent) return Error("expected table name");
    query.tables.push_back(Advance().text);
    if (Peek().IsSymbol(",")) {
      Advance();
      continue;
    }
    break;
  }

  if (Peek().IsKeyword("CONSTRAINT")) {
    Advance();
    query.has_constraint = true;
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected aggregate function");
    }
    query.agg_function = Advance().text;
    ACQ_RETURN_IF_ERROR(ExpectSymbol("("));
    if (Peek().IsSymbol("*")) {
      Advance();
    } else {
      ACQ_ASSIGN_OR_RETURN(query.agg_column, ParseColumnRef());
    }
    ACQ_RETURN_IF_ERROR(ExpectSymbol(")"));
    ACQ_ASSIGN_OR_RETURN(query.constraint_op, ParseCompareOp());
    if (Peek().kind != TokenKind::kNumber) {
      return Error("expected constraint target number");
    }
    query.target = Advance().number;
  }

  if (Peek().IsKeyword("WHERE")) {
    Advance();
    for (;;) {
      ACQ_ASSIGN_OR_RETURN(AstPredicate pred, ParsePredicate());
      query.predicates.push_back(std::move(pred));
      if (Peek().IsKeyword("AND")) {
        Advance();
        continue;
      }
      break;
    }
  }

  if (Peek().IsSymbol(";")) Advance();
  if (Peek().kind != TokenKind::kEnd) return Error("trailing input");
  return query;
}

}  // namespace

Result<AstQuery> ParseAcqSql(const std::string& sql) {
  ACQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

}  // namespace acquire
