#include "expr/expr.h"

#include "common/string_util.h"

namespace acquire {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      return op;
  }
  return op;
}

ExprPtr Expr::Column(std::string name) {
  auto e = ExprPtr(new Expr(Kind::kColumn));
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = ExprPtr(new Expr(Kind::kLiteral));
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(Kind::kCompare));
  e->compare_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(Kind::kArith));
  e->arith_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::And(std::vector<ExprPtr> children) {
  auto e = ExprPtr(new Expr(Kind::kAnd));
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Or(std::vector<ExprPtr> children) {
  auto e = ExprPtr(new Expr(Kind::kOr));
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Not(ExprPtr child) {
  auto e = ExprPtr(new Expr(Kind::kNot));
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::In(ExprPtr needle, std::vector<Value> haystack) {
  auto e = ExprPtr(new Expr(Kind::kIn));
  e->children_ = {std::move(needle)};
  e->values_ = std::move(haystack);
  return e;
}

ExprPtr Expr::Between(ExprPtr operand, Value lo, Value hi) {
  auto e = ExprPtr(new Expr(Kind::kBetween));
  e->children_ = {std::move(operand)};
  e->values_ = {std::move(lo), std::move(hi)};
  return e;
}

Status Expr::Bind(const Schema& schema) {
  if (kind_ == Kind::kColumn) {
    ACQ_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(column_name_));
    bound_index_ = static_cast<int>(idx);
    return Status::OK();
  }
  for (const ExprPtr& child : children_) {
    ACQ_RETURN_IF_ERROR(child->Bind(schema));
  }
  return Status::OK();
}

bool Expr::bound() const {
  if (kind_ == Kind::kColumn) return bound_index_ >= 0;
  for (const ExprPtr& child : children_) {
    if (!child->bound()) return false;
  }
  return true;
}

namespace {

Result<Value> CompareValues(CompareOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value(int64_t{0});
  int c = a.Compare(b);
  bool result = false;
  switch (op) {
    case CompareOp::kEq:
      result = c == 0;
      break;
    case CompareOp::kNe:
      result = c != 0;
      break;
    case CompareOp::kLt:
      result = c < 0;
      break;
    case CompareOp::kLe:
      result = c <= 0;
      break;
    case CompareOp::kGt:
      result = c > 0;
      break;
    case CompareOp::kGe:
      result = c >= 0;
      break;
  }
  return Value(int64_t{result ? 1 : 0});
}

}  // namespace

Result<Value> Expr::Eval(const Table& table, size_t row) const {
  switch (kind_) {
    case Kind::kColumn: {
      if (bound_index_ < 0) {
        return Status::Internal("unbound column reference: " + column_name_);
      }
      return table.Get(row, static_cast<size_t>(bound_index_));
    }
    case Kind::kLiteral:
      return literal_;
    case Kind::kCompare: {
      ACQ_ASSIGN_OR_RETURN(Value lhs, children_[0]->Eval(table, row));
      ACQ_ASSIGN_OR_RETURN(Value rhs, children_[1]->Eval(table, row));
      return CompareValues(compare_op_, lhs, rhs);
    }
    case Kind::kArith: {
      ACQ_ASSIGN_OR_RETURN(Value lhs, children_[0]->Eval(table, row));
      ACQ_ASSIGN_OR_RETURN(Value rhs, children_[1]->Eval(table, row));
      ACQ_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
      ACQ_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
      switch (arith_op_) {
        case ArithOp::kAdd:
          return Value(a + b);
        case ArithOp::kSub:
          return Value(a - b);
        case ArithOp::kMul:
          return Value(a * b);
        case ArithOp::kDiv:
          if (b == 0.0) return Status::InvalidArgument("division by zero");
          return Value(a / b);
      }
      return Status::Internal("unreachable arith op");
    }
    case Kind::kAnd: {
      for (const ExprPtr& child : children_) {
        ACQ_ASSIGN_OR_RETURN(bool b, child->EvalBool(table, row));
        if (!b) return Value(int64_t{0});
      }
      return Value(int64_t{1});
    }
    case Kind::kOr: {
      for (const ExprPtr& child : children_) {
        ACQ_ASSIGN_OR_RETURN(bool b, child->EvalBool(table, row));
        if (b) return Value(int64_t{1});
      }
      return Value(int64_t{0});
    }
    case Kind::kNot: {
      ACQ_ASSIGN_OR_RETURN(bool b, children_[0]->EvalBool(table, row));
      return Value(int64_t{b ? 0 : 1});
    }
    case Kind::kIn: {
      ACQ_ASSIGN_OR_RETURN(Value needle, children_[0]->Eval(table, row));
      for (const Value& candidate : values_) {
        if (needle == candidate) return Value(int64_t{1});
      }
      return Value(int64_t{0});
    }
    case Kind::kBetween: {
      ACQ_ASSIGN_OR_RETURN(Value v, children_[0]->Eval(table, row));
      ACQ_ASSIGN_OR_RETURN(Value ge, CompareValues(CompareOp::kGe, v, values_[0]));
      ACQ_ASSIGN_OR_RETURN(Value le, CompareValues(CompareOp::kLe, v, values_[1]));
      return Value(int64_t{(ge.int64() && le.int64()) ? 1 : 0});
    }
  }
  return Status::Internal("unreachable expr kind");
}

Result<bool> Expr::EvalBool(const Table& table, size_t row) const {
  ACQ_ASSIGN_OR_RETURN(Value v, Eval(table, row));
  if (v.is_null()) return false;
  ACQ_ASSIGN_OR_RETURN(double d, v.AsDouble());
  return d != 0.0;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return column_name_;
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kCompare:
      return children_[0]->ToString() + " " + CompareOpToString(compare_op_) +
             " " + children_[1]->ToString();
    // The parenthesized forms append instead of "(" + std::string: GCC 12
    // flags that form with a false -Wrestrict at -O3 (GCC bug 105329).
    case Kind::kArith: {
      std::string out = "(";
      out += children_[0]->ToString();
      out += " ";
      out += ArithOpToString(arith_op_);
      out += " ";
      out += children_[1]->ToString();
      out += ")";
      return out;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(children_.size());
      for (const ExprPtr& child : children_) parts.push_back(child->ToString());
      std::string out = "(";
      out += Join(parts, kind_ == Kind::kAnd ? " AND " : " OR ");
      out += ")";
      return out;
    }
    case Kind::kNot:
      return "NOT (" + children_[0]->ToString() + ")";
    case Kind::kIn: {
      std::vector<std::string> parts;
      parts.reserve(values_.size());
      for (const Value& v : values_) parts.push_back(v.ToString());
      return children_[0]->ToString() + " IN (" + Join(parts, ", ") + ")";
    }
    case Kind::kBetween:
      return children_[0]->ToString() + " BETWEEN " + values_[0].ToString() +
             " AND " + values_[1].ToString();
  }
  return "?";
}

}  // namespace acquire
