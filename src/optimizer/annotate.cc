#include "optimizer/annotate.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "expr/compiled_expr.h"
#include "optimizer/selectivity.h"

namespace seq {
namespace {

// Clamped helpers: sentinel (±kMaxPosition) bounds stay sentinels under
// arithmetic so unbounded spans remain unbounded.
Position AddSticky(Position p, int64_t delta) {
  if (p <= kMinPosition) return kMinPosition;
  if (p >= kMaxPosition) return kMaxPosition;
  return p + delta;
}

Position MulClamp(Position p, int64_t factor) {
  if (p <= kMinPosition / factor) return kMinPosition;
  if (p >= kMaxPosition / factor) return kMaxPosition;
  return p * factor;
}

Result<TypeId> AggOutputType(AggFunc func, TypeId column_type) {
  switch (func) {
    case AggFunc::kCount:
      return TypeId::kInt64;
    case AggFunc::kAvg:
      if (!IsNumeric(column_type)) {
        return Status::TypeError("avg requires a numeric column");
      }
      return TypeId::kDouble;
    case AggFunc::kSum:
      if (!IsNumeric(column_type)) {
        return Status::TypeError("sum requires a numeric column");
      }
      return column_type;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (!IsNumeric(column_type) && column_type != TypeId::kString) {
        return Status::TypeError("min/max requires an orderable column");
      }
      return column_type;
  }
  return Status::Internal("unknown aggregate function");
}

std::string AggOutputName(const LogicalOp& op) {
  if (!op.output_name().empty()) return op.output_name();
  return std::string(AggFuncName(op.agg_func())) + "_" + op.agg_column();
}

}  // namespace

Status Annotator::AnnotateBottomUp(LogicalOp* op) const {
  for (size_t i = 0; i < op->arity(); ++i) {
    SEQ_RETURN_IF_ERROR(AnnotateBottomUp(op->mutable_input(i).get()));
  }
  return AnnotateNode(op);
}

Status Annotator::AnnotateNode(LogicalOp* op) const {
  SeqMeta& meta = op->mutable_meta();
  meta.annotated = false;
  switch (op->kind()) {
    case OpKind::kBaseRef: {
      SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                           catalog_.Lookup(op->seq_name()));
      if (entry->kind != CatalogEntry::Kind::kBase) {
        return Status::InvalidArgument("'" + op->seq_name() +
                                       "' is not a base sequence");
      }
      meta.schema = entry->schema;
      meta.span = entry->span();
      meta.density = entry->density();
      meta.source_names = {op->seq_name()};
      meta.stats_store = entry->store.get();
      break;
    }
    case OpKind::kConstantRef: {
      SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                           catalog_.Lookup(op->seq_name()));
      if (entry->kind != CatalogEntry::Kind::kConstant) {
        return Status::InvalidArgument("'" + op->seq_name() +
                                       "' is not a constant sequence");
      }
      meta.schema = entry->schema;
      meta.span = Span::Unbounded();
      meta.density = 1.0;
      meta.source_names.clear();
      meta.stats_store = nullptr;
      break;
    }
    case OpKind::kSelect: {
      const SeqMeta& in = op->input()->meta();
      // Type check the predicate.
      SEQ_RETURN_IF_ERROR(
          CompiledExpr::CompilePredicate(op->predicate(), *in.schema)
              .status());
      meta.schema = in.schema;
      meta.span = in.span;
      double sel =
          EstimateSelectivity(op->predicate(), in.stats_store, params_);
      meta.density = in.density * sel;
      meta.source_names = in.source_names;
      meta.stats_store = in.stats_store;
      break;
    }
    case OpKind::kProject: {
      const SeqMeta& in = op->input()->meta();
      std::vector<size_t> indices;
      indices.reserve(op->columns().size());
      for (const std::string& col : op->columns()) {
        SEQ_ASSIGN_OR_RETURN(size_t idx, in.schema->FieldIndex(col));
        indices.push_back(idx);
      }
      SEQ_ASSIGN_OR_RETURN(meta.schema,
                           in.schema->Project(indices, op->renames()));
      meta.span = in.span;
      meta.density = in.density;
      meta.source_names = in.source_names;
      bool renames_identity = true;
      for (size_t i = 0; i < op->renames().size(); ++i) {
        if (!op->renames()[i].empty() &&
            op->renames()[i] != op->columns()[i]) {
          renames_identity = false;
        }
      }
      // Column statistics remain addressable by name only when the
      // projection does not rename.
      meta.stats_store = renames_identity ? in.stats_store : nullptr;
      break;
    }
    case OpKind::kPositionalOffset: {
      const SeqMeta& in = op->input()->meta();
      meta.schema = in.schema;
      // out(i) = in(i + l): non-null where i + l falls in the input span.
      meta.span = in.span.Shift(-op->offset());
      meta.density = in.density;
      meta.source_names = in.source_names;
      meta.stats_store = in.stats_store;
      break;
    }
    case OpKind::kValueOffset: {
      const SeqMeta& in = op->input()->meta();
      meta.schema = in.schema;
      if (in.span.IsEmpty()) {
        meta.span = Span::Empty();
        meta.density = 0.0;
      } else if (op->offset() < 0) {
        // Previous-style: once |l| records have been seen the output stays
        // non-null at every later position, indefinitely.
        meta.span = Span::Of(AddSticky(in.span.start, -op->offset()),
                             kMaxPosition);
        meta.density = 1.0;
      } else {
        meta.span = Span::Of(kMinPosition,
                             AddSticky(in.span.end, -op->offset()));
        meta.density = 1.0;
      }
      meta.source_names = in.source_names;
      meta.stats_store = in.stats_store;  // records are input records
      break;
    }
    case OpKind::kWindowAgg: {
      const SeqMeta& in = op->input()->meta();
      SEQ_ASSIGN_OR_RETURN(size_t col_idx,
                           in.schema->FieldIndex(op->agg_column()));
      SEQ_ASSIGN_OR_RETURN(
          TypeId out_type,
          AggOutputType(op->agg_func(), in.schema->field(col_idx).type));
      meta.schema = Schema::Make({Field{AggOutputName(*op), out_type}});
      switch (op->window_kind()) {
        case WindowKind::kTrailing:
          // Non-null wherever the trailing window holds >= 1 record.
          meta.span = in.span.ExtendEnd(op->window() - 1);
          meta.density =
              1.0 - std::pow(1.0 - std::min(in.density, 1.0),
                             static_cast<double>(op->window()));
          break;
        case WindowKind::kRunning:
          meta.span = in.span.IsEmpty()
                          ? Span::Empty()
                          : Span::Of(in.span.start, kMaxPosition);
          meta.density = 1.0;
          break;
        case WindowKind::kAll:
          // Defined everywhere; reported within the input span.
          meta.span = in.span;
          meta.density = in.span.IsEmpty() ? 0.0 : 1.0;
          break;
      }
      meta.source_names = in.source_names;
      meta.stats_store = nullptr;
      break;
    }
    case OpKind::kCompose: {
      const SeqMeta& l = op->input(0)->meta();
      const SeqMeta& r = op->input(1)->meta();
      meta.schema = Schema::Concat(*l.schema, *r.schema);
      meta.span = l.span.Intersect(r.span);
      double corr = 0.0;
      if (l.source_names.size() == 1 && r.source_names.size() == 1) {
        corr = catalog_.NullCorrelation(l.source_names[0], r.source_names[0]);
      }
      double joint = Catalog::JointDensity(l.density, r.density, corr);
      double sel = 1.0;
      if (op->predicate() != nullptr) {
        SEQ_RETURN_IF_ERROR(CompiledExpr::CompilePredicate(
                                op->predicate(), *l.schema, r.schema.get())
                                .status());
        sel = EstimateSelectivity(op->predicate(), nullptr, params_);
      }
      meta.density = joint * sel;
      meta.source_names = l.source_names;
      meta.source_names.insert(meta.source_names.end(),
                               r.source_names.begin(), r.source_names.end());
      meta.stats_store = nullptr;
      break;
    }
    case OpKind::kCollapse: {
      const SeqMeta& in = op->input()->meta();
      SEQ_ASSIGN_OR_RETURN(size_t col_idx,
                           in.schema->FieldIndex(op->agg_column()));
      SEQ_ASSIGN_OR_RETURN(
          TypeId out_type,
          AggOutputType(op->agg_func(), in.schema->field(col_idx).type));
      std::string name = op->output_name().empty()
                             ? std::string(AggFuncName(op->agg_func())) + "_" +
                                   op->agg_column()
                             : op->output_name();
      meta.schema = Schema::Make({Field{name, out_type}});
      int64_t f = op->collapse_factor();
      if (in.span.IsEmpty()) {
        meta.span = Span::Empty();
        meta.density = 0.0;
      } else {
        Position s = in.span.start <= kMinPosition
                         ? kMinPosition
                         : static_cast<Position>(
                               std::floor(static_cast<double>(in.span.start) /
                                          static_cast<double>(f)));
        Position e = in.span.end >= kMaxPosition
                         ? kMaxPosition
                         : static_cast<Position>(
                               std::floor(static_cast<double>(in.span.end) /
                                          static_cast<double>(f)));
        meta.span = Span::Of(s, e);
        meta.density = 1.0 - std::pow(1.0 - std::min(in.density, 1.0),
                                      static_cast<double>(f));
      }
      meta.source_names = in.source_names;
      meta.stats_store = nullptr;
      break;
    }
    case OpKind::kExpand: {
      const SeqMeta& in = op->input()->meta();
      meta.schema = in.schema;
      int64_t f = op->expand_factor();
      if (in.span.IsEmpty()) {
        meta.span = Span::Empty();
        meta.density = 0.0;
      } else {
        // out(i) = in(floor(i/f)): input bucket b surfaces at positions
        // [b*f, (b+1)*f - 1].
        meta.span = Span::Of(MulClamp(in.span.start, f),
                             AddSticky(MulClamp(AddSticky(in.span.end, 1), f),
                                       -1));
        meta.density = in.density;
      }
      meta.source_names = in.source_names;
      meta.stats_store = in.stats_store;  // records are input records
      break;
    }
  }
  meta.density = std::clamp(meta.density, 0.0, 1.0);
  meta.required = meta.span;
  meta.annotated = true;
  return Status::OK();
}

void Annotator::PushRequiredSpans(LogicalOp* op, Span required,
                                  bool narrow) const {
  SeqMeta& meta = op->mutable_meta();
  SEQ_CHECK_MSG(meta.annotated, "PushRequiredSpans before AnnotateBottomUp");
  Span eff = narrow ? required.Intersect(meta.span) : required;
  meta.required = eff;
  switch (op->kind()) {
    case OpKind::kBaseRef:
    case OpKind::kConstantRef:
      return;
    case OpKind::kSelect:
    case OpKind::kProject:
      PushRequiredSpans(op->mutable_input().get(), eff, narrow);
      return;
    case OpKind::kPositionalOffset:
      PushRequiredSpans(op->mutable_input().get(), eff.Shift(op->offset()), narrow);
      return;
    case OpKind::kValueOffset: {
      const Span in_span = op->input()->meta().span;
      Span child_req;
      if (eff.IsEmpty() || in_span.IsEmpty()) {
        child_req = Span::Empty();
      } else if (op->offset() < 0) {
        // out(i) reads records strictly before i, potentially back to the
        // input's start.
        child_req = Span::Of(in_span.start, AddSticky(eff.end, -1));
      } else {
        child_req = Span::Of(AddSticky(eff.start, 1), in_span.end);
      }
      PushRequiredSpans(op->mutable_input().get(), child_req, narrow);
      return;
    }
    case OpKind::kWindowAgg: {
      const Span in_span = op->input()->meta().span;
      Span child_req;
      if (eff.IsEmpty()) {
        child_req = Span::Empty();
      } else {
        switch (op->window_kind()) {
          case WindowKind::kTrailing:
            child_req = Span::Of(AddSticky(eff.start, -(op->window() - 1)),
                                 eff.end);
            break;
          case WindowKind::kRunning:
            child_req = in_span.IsEmpty()
                            ? Span::Empty()
                            : Span::Of(in_span.start, eff.end);
            break;
          case WindowKind::kAll:
            child_req = in_span;  // cannot be narrowed
            break;
        }
      }
      PushRequiredSpans(op->mutable_input().get(), child_req, narrow);
      return;
    }
    case OpKind::kCompose: {
      // The Fig. 3 optimization: each input only needs positions where the
      // *other* input can also be non-null, intersected with what the
      // consumer asked for. meta.span is already the intersection of the
      // input spans, so pushing `eff` into both sides narrows each input by
      // the other's span.
      PushRequiredSpans(op->mutable_input(0).get(), eff, narrow);
      PushRequiredSpans(op->mutable_input(1).get(), eff, narrow);
      return;
    }
    case OpKind::kCollapse: {
      int64_t f = op->collapse_factor();
      Span child_req =
          eff.IsEmpty()
              ? Span::Empty()
              : Span::Of(MulClamp(eff.start, f),
                         AddSticky(MulClamp(AddSticky(eff.end, 1), f), -1));
      PushRequiredSpans(op->mutable_input().get(), child_req, narrow);
      return;
    }
    case OpKind::kExpand: {
      int64_t f = op->expand_factor();
      Span child_req;
      if (eff.IsEmpty()) {
        child_req = Span::Empty();
      } else {
        auto floor_div = [](Position p, int64_t d) {
          if (p <= kMinPosition || p >= kMaxPosition) return p;
          Position q = p / d;
          if (p % d != 0 && p < 0) --q;
          return q;
        };
        child_req = Span::Of(floor_div(eff.start, f), floor_div(eff.end, f));
      }
      PushRequiredSpans(op->mutable_input().get(), child_req, narrow);
      return;
    }
  }
}

}  // namespace seq
