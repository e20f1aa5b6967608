#include "parser/parser.h"

#include "common/logging.h"
#include "expr/expr.h"
#include "parser/lexer.h"

namespace seq {
namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedProgram> Program() {
    ParsedProgram program;
    // `explain [analyze]` prefix — but `explain = ...` is a definition.
    if (Peek().IsIdent("explain") && !Peek(1).IsSymbol("=")) {
      Take();
      if (Peek().IsIdent("analyze") && !Peek(1).IsSymbol("=")) {
        Take();
        program.explain = ExplainMode::kExplainAnalyze;
      } else {
        program.explain = ExplainMode::kExplain;
      }
    }
    while (!Peek().Is(TokKind::kEnd)) {
      SEQ_RETURN_IF_ERROR(Statement(&program));
    }
    if (program.order.empty()) {
      return Status::ParseError("empty program");
    }
    program.main = program.definitions[program.order.back()];
    return program;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t idx = pos_ + ahead;
    if (idx >= tokens_.size()) idx = tokens_.size() - 1;
    return tokens_[idx];
  }
  const Token& Take() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  Status ErrorHere(const std::string& what) const {
    const Token& t = Peek();
    return Status::ParseError(what + " at line " + std::to_string(t.line) +
                              ", column " + std::to_string(t.column) +
                              (t.text.empty() ? "" : " (near '" + t.text + "')"));
  }

  Status ExpectSymbol(const char* s) {
    if (!Peek().IsSymbol(s)) {
      return ErrorHere(std::string("expected '") + s + "'");
    }
    Take();
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (!Peek().Is(TokKind::kIdent)) return ErrorHere("expected identifier");
    return Take().text;
  }

  Status Statement(ParsedProgram* program) {
    SEQ_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    SEQ_RETURN_IF_ERROR(ExpectSymbol("="));
    SEQ_ASSIGN_OR_RETURN(LogicalOpPtr graph, SeqExpr(*program));
    SEQ_RETURN_IF_ERROR(ExpectSymbol(";"));
    if (program->definitions.count(name) > 0) {
      return Status::ParseError("redefinition of '" + name + "'");
    }
    program->definitions.emplace(name, std::move(graph));
    program->order.push_back(std::move(name));
    return Status::OK();
  }

  static bool IsAggName(const std::string& s) {
    return s == "sum" || s == "avg" || s == "min" || s == "max" ||
           s == "count";
  }

  static AggFunc AggFromName(const std::string& s) {
    if (s == "sum") return AggFunc::kSum;
    if (s == "avg") return AggFunc::kAvg;
    if (s == "min") return AggFunc::kMin;
    if (s == "max") return AggFunc::kMax;
    return AggFunc::kCount;
  }

  Result<LogicalOpPtr> SeqExpr(const ParsedProgram& program) {
    if (!Peek().Is(TokKind::kIdent)) {
      return ErrorHere("expected a sequence expression");
    }
    // A call if followed by '('; otherwise a name reference.
    if (!Peek(1).IsSymbol("(")) {
      std::string name = Take().text;
      auto it = program.definitions.find(name);
      if (it != program.definitions.end()) {
        // Re-using a definition keeps the graph a tree (the paper's §2.2
        // restriction): share by deep copy.
        return it->second->Clone();
      }
      return LogicalOp::BaseRef(name);
    }
    std::string func = Take().text;
    SEQ_RETURN_IF_ERROR(ExpectSymbol("("));

    if (func == "const") {
      SEQ_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      return LogicalOp::ConstantRef(name);
    }
    if (func == "select") {
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr input, SeqExpr(program));
      SEQ_RETURN_IF_ERROR(ExpectSymbol(","));
      SEQ_ASSIGN_OR_RETURN(ExprPtr pred, Predicate());
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      return LogicalOp::Select(std::move(input), std::move(pred));
    }
    if (func == "project") {
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr input, SeqExpr(program));
      std::vector<std::string> columns;
      std::vector<std::string> renames;
      while (Peek().IsSymbol(",")) {
        Take();
        SEQ_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        std::string rename;
        if (Peek().IsIdent("as")) {
          Take();
          SEQ_ASSIGN_OR_RETURN(rename, ExpectIdent());
        }
        columns.push_back(std::move(col));
        renames.push_back(std::move(rename));
      }
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (columns.empty()) {
        return ErrorHere("project needs at least one column");
      }
      return LogicalOp::Project(std::move(input), std::move(columns),
                                std::move(renames));
    }
    if (func == "offset" || func == "voffset") {
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr input, SeqExpr(program));
      SEQ_RETURN_IF_ERROR(ExpectSymbol(","));
      SEQ_ASSIGN_OR_RETURN(int64_t l, SignedInt());
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      SEQ_RETURN_IF_ERROR(CheckMagnitude(func.c_str(), l));
      if (func == "offset") {
        return LogicalOp::PositionalOffset(std::move(input), l);
      }
      if (l == 0) return ErrorHere("voffset must be non-zero");
      return LogicalOp::ValueOffset(std::move(input), l);
    }
    if (func == "prev" || func == "next") {
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr input, SeqExpr(program));
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      return LogicalOp::ValueOffset(std::move(input),
                                    func == "prev" ? -1 : 1);
    }
    if (IsAggName(func)) {
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr input, SeqExpr(program));
      SEQ_RETURN_IF_ERROR(ExpectSymbol(","));
      SEQ_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      SEQ_RETURN_IF_ERROR(ExpectSymbol(","));
      LogicalOpPtr out;
      AggFunc agg = AggFromName(func);
      if (Peek().IsIdent("over")) {
        Take();
        if (Peek().IsIdent("all")) {
          Take();
          out = LogicalOp::OverallAgg(std::move(input), agg, col);
        } else {
          SEQ_ASSIGN_OR_RETURN(int64_t w, SignedInt());
          if (w < 1) return ErrorHere("window must be >= 1");
          SEQ_RETURN_IF_ERROR(CheckMagnitude("window", w));
          out = LogicalOp::WindowAgg(std::move(input), agg, col, w);
        }
      } else if (Peek().IsIdent("running")) {
        Take();
        out = LogicalOp::RunningAgg(std::move(input), agg, col);
      } else {
        return ErrorHere("expected 'over N', 'over all' or 'running'");
      }
      if (Peek().IsSymbol(",")) {
        Take();
        if (!Peek().IsIdent("as")) return ErrorHere("expected 'as'");
        Take();
        SEQ_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
        // Rebuild with the output name.
        switch (out->window_kind()) {
          case WindowKind::kTrailing:
            out = LogicalOp::WindowAgg(out->mutable_input(), agg, col,
                                       out->window(), name);
            break;
          case WindowKind::kRunning:
            out = LogicalOp::RunningAgg(out->mutable_input(), agg, col, name);
            break;
          case WindowKind::kAll:
            out = LogicalOp::OverallAgg(out->mutable_input(), agg, col, name);
            break;
        }
      }
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      return out;
    }
    if (func == "compose") {
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr left, SeqExpr(program));
      SEQ_RETURN_IF_ERROR(ExpectSymbol(","));
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr right, SeqExpr(program));
      ExprPtr pred;
      if (Peek().IsSymbol(",")) {
        Take();
        SEQ_ASSIGN_OR_RETURN(pred, Predicate());
      }
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      return LogicalOp::Compose(std::move(left), std::move(right),
                                std::move(pred));
    }
    if (func == "expand") {
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr input, SeqExpr(program));
      SEQ_RETURN_IF_ERROR(ExpectSymbol(","));
      SEQ_ASSIGN_OR_RETURN(int64_t factor, SignedInt());
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (factor < 1) return ErrorHere("expand factor must be >= 1");
      SEQ_RETURN_IF_ERROR(CheckMagnitude("expand factor", factor));
      return LogicalOp::Expand(std::move(input), factor);
    }
    if (func == "collapse") {
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr input, SeqExpr(program));
      SEQ_RETURN_IF_ERROR(ExpectSymbol(","));
      SEQ_ASSIGN_OR_RETURN(int64_t factor, SignedInt());
      SEQ_RETURN_IF_ERROR(ExpectSymbol(","));
      SEQ_ASSIGN_OR_RETURN(std::string agg_name, ExpectIdent());
      if (!IsAggName(agg_name)) return ErrorHere("expected aggregate name");
      SEQ_RETURN_IF_ERROR(ExpectSymbol(","));
      SEQ_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      std::string output_name;
      if (Peek().IsSymbol(",")) {
        Take();
        if (!Peek().IsIdent("as")) return ErrorHere("expected 'as'");
        Take();
        SEQ_ASSIGN_OR_RETURN(output_name, ExpectIdent());
      }
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (factor < 1) return ErrorHere("collapse factor must be >= 1");
      SEQ_RETURN_IF_ERROR(CheckMagnitude("collapse factor", factor));
      return LogicalOp::Collapse(std::move(input), factor,
                                 AggFromName(agg_name), col,
                                 std::move(output_name));
    }
    return ErrorHere("unknown operator '" + func + "'");
  }

  // Span arithmetic is exact only while every shift and window stays
  // within the position domain.
  Status CheckMagnitude(const char* what, int64_t v) const {
    if (v >= -kMaxPosition && v <= kMaxPosition) return Status::OK();
    return ErrorHere(std::string(what) + " magnitude must be <= " +
                     std::to_string(kMaxPosition));
  }

  Result<int64_t> SignedInt() {
    bool negative = false;
    if (Peek().IsSymbol("-")) {
      Take();
      negative = true;
    }
    if (!Peek().Is(TokKind::kInt)) return ErrorHere("expected integer");
    int64_t v = Take().int_value;
    return negative ? -v : v;
  }

  // --- predicate / scalar expression grammar -------------------------------

  Result<ExprPtr> Predicate() { return OrExpr(); }

  Result<ExprPtr> OrExpr() {
    SEQ_ASSIGN_OR_RETURN(ExprPtr left, AndExpr());
    while (Peek().IsIdent("or")) {
      Take();
      SEQ_ASSIGN_OR_RETURN(ExprPtr right, AndExpr());
      left = Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> AndExpr() {
    SEQ_ASSIGN_OR_RETURN(ExprPtr left, NotExpr());
    while (Peek().IsIdent("and")) {
      Take();
      SEQ_ASSIGN_OR_RETURN(ExprPtr right, NotExpr());
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> NotExpr() {
    if (Peek().IsIdent("not")) {
      Take();
      SEQ_ASSIGN_OR_RETURN(ExprPtr operand, NotExpr());
      return Not(std::move(operand));
    }
    return Comparison();
  }

  Result<ExprPtr> Comparison() {
    SEQ_ASSIGN_OR_RETURN(ExprPtr left, AddSub());
    struct CmpMap {
      const char* sym;
      BinaryOp op;
    };
    static const CmpMap kMap[] = {
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"==", BinaryOp::kEq},
        {"!=", BinaryOp::kNe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const CmpMap& m : kMap) {
      if (Peek().IsSymbol(m.sym)) {
        Take();
        SEQ_ASSIGN_OR_RETURN(ExprPtr right, AddSub());
        return Expr::Binary(m.op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<ExprPtr> AddSub() {
    SEQ_ASSIGN_OR_RETURN(ExprPtr left, MulDiv());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      BinaryOp op = Peek().IsSymbol("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Take();
      SEQ_ASSIGN_OR_RETURN(ExprPtr right, MulDiv());
      left = Expr::Binary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> MulDiv() {
    SEQ_ASSIGN_OR_RETURN(ExprPtr left, Primary());
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/")) {
      BinaryOp op = Peek().IsSymbol("*") ? BinaryOp::kMul : BinaryOp::kDiv;
      Take();
      SEQ_ASSIGN_OR_RETURN(ExprPtr right, Primary());
      left = Expr::Binary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> Primary() {
    const Token& tok = Peek();
    if (tok.Is(TokKind::kInt)) {
      Take();
      return Lit(tok.int_value);
    }
    if (tok.Is(TokKind::kDouble)) {
      Take();
      return Lit(tok.double_value);
    }
    if (tok.Is(TokKind::kString)) {
      Take();
      return Expr::Literal(Value::String(tok.text));
    }
    if (tok.IsSymbol("(")) {
      Take();
      SEQ_ASSIGN_OR_RETURN(ExprPtr inner, Predicate());
      SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    if (tok.IsSymbol("-")) {
      Take();
      SEQ_ASSIGN_OR_RETURN(ExprPtr operand, Primary());
      return Expr::Unary(UnaryOp::kNeg, std::move(operand));
    }
    if (tok.Is(TokKind::kIdent)) {
      if (tok.text == "true" || tok.text == "false") {
        Take();
        return Lit(tok.text == "true");
      }
      if (tok.text == "pos" && Peek(1).IsSymbol("(")) {
        Take();
        Take();
        SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
        return Expr::Position();
      }
      if (tok.text == "abs" && Peek(1).IsSymbol("(")) {
        Take();
        Take();
        SEQ_ASSIGN_OR_RETURN(ExprPtr operand, Predicate());
        SEQ_RETURN_IF_ERROR(ExpectSymbol(")"));
        return Expr::Unary(UnaryOp::kAbs, std::move(operand));
      }
      if ((tok.text == "left" || tok.text == "right") &&
          Peek(1).IsSymbol(".")) {
        int side = (tok.text == "right") ? 1 : 0;
        Take();
        Take();
        SEQ_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
        return Expr::Column(std::move(name), side);
      }
      Take();
      return Expr::Column(tok.text, 0);
    }
    return ErrorHere("expected an expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<ParsedProgram> ParseSequin(const std::string& source) {
  SEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens));
  return parser.Program();
}

Result<LogicalOpPtr> ParseSequinQuery(const std::string& source) {
  SEQ_ASSIGN_OR_RETURN(ParsedProgram program, ParseSequin(source));
  return program.main;
}

}  // namespace seq
