#include "engine/evaluator.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>

#include "sparql/normalize.h"
#include "util/stopwatch.h"

namespace sparqlsim::engine {

namespace {

/// A triple-pattern position resolved against the database dictionary.
struct Slot {
  bool is_var = false;
  int var_index = -1;         // schema position when is_var
  uint32_t constant = kUnbound;  // node id when constant; kUnbound = missing
  bool missing = false;       // constant not present in the dictionary
};

struct ResolvedPattern {
  Slot subject;
  Slot object;
  uint32_t predicate = kUnbound;  // kUnbound = predicate not in dictionary
};

struct RowKeyHash {
  size_t operator()(const std::vector<uint32_t>& key) const {
    uint64_t h = 1469598103934665603ULL;
    for (uint32_t v : key) {
      h ^= v;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

std::vector<std::string> BgpVars(
    const std::vector<sparql::TriplePattern>& triples) {
  std::vector<std::string> vars;
  auto add = [&](const sparql::Term& t) {
    if (!t.IsVariable()) return;
    if (std::find(vars.begin(), vars.end(), t.text()) == vars.end()) {
      vars.push_back(t.text());
    }
  };
  for (const sparql::TriplePattern& t : triples) {
    add(t.subject);
    add(t.object);
  }
  return vars;
}

}  // namespace

std::vector<size_t> Evaluator::PlanBgp(
    const std::vector<sparql::TriplePattern>& triples) const {
  std::vector<size_t> plan(triples.size());
  for (size_t i = 0; i < triples.size(); ++i) plan[i] = i;
  if (options_.policy == JoinOrderPolicy::kAsWritten || triples.size() <= 1) {
    return plan;
  }

  auto cardinality = [&](const sparql::TriplePattern& t) -> double {
    auto p = db_->predicates().Lookup(t.predicate.text());
    return p ? static_cast<double>(db_->PredicateCardinality(*p)) : 0.0;
  };
  auto vars_of = [](const sparql::TriplePattern& t) {
    std::vector<std::string> vars;
    if (t.subject.IsVariable()) vars.push_back(t.subject.text());
    if (t.object.IsVariable()) vars.push_back(t.object.text());
    return vars;
  };

  std::vector<size_t> order;
  std::vector<bool> used(triples.size(), false);
  std::set<std::string> bound;

  for (size_t step = 0; step < triples.size(); ++step) {
    double best_cost = 0;
    int best = -1;
    for (size_t i = 0; i < triples.size(); ++i) {
      if (used[i]) continue;
      const sparql::TriplePattern& t = triples[i];
      bool s_bound = t.subject.IsConstant() ||
                     (t.subject.IsVariable() && bound.count(t.subject.text()));
      bool o_bound = t.object.IsConstant() ||
                     (t.object.IsVariable() && bound.count(t.object.text()));
      double card = cardinality(t);
      double cost;
      if (options_.policy == JoinOrderPolicy::kRdfoxLike) {
        // Bound-aware greedy estimate.
        auto p = db_->predicates().Lookup(t.predicate.text());
        if (!p || card == 0) {
          cost = 0;  // guaranteed empty; evaluate first and finish
        } else if (s_bound && o_bound) {
          cost = 1;
        } else if (s_bound) {
          cost = std::max(1.0, card / std::max<size_t>(
                                          1, db_->DistinctSubjects(*p)));
        } else if (o_bound) {
          cost = std::max(1.0, card / std::max<size_t>(
                                          1, db_->DistinctObjects(*p)));
        } else {
          cost = card;
        }
        bool connected = s_bound || o_bound;
        if (!bound.empty() && !connected) cost *= 1e6;  // defer cartesians
      } else {
        // Virtuoso-like: static per-predicate cardinality, preferring
        // patterns connected to the bound set. Patterns whose only
        // "binding" is a constant are scannable but join nothing, so
        // variable connectivity wins ties — without this, a re-planned
        // order on a pruned database can produce cartesian blow-ups far
        // beyond the (real) D4-style anomaly of the paper.
        bool var_connected =
            (t.subject.IsVariable() && bound.count(t.subject.text())) ||
            (t.object.IsVariable() && bound.count(t.object.text()));
        cost = card;
        bool connected = var_connected || s_bound || o_bound || bound.empty();
        if (!connected) cost += 1e15;
        if (!var_connected && !bound.empty()) cost += 0.5;  // tie-break
      }
      if (best < 0 || cost < best_cost) {
        best = static_cast<int>(i);
        best_cost = cost;
      }
    }
    order.push_back(static_cast<size_t>(best));
    used[best] = true;
    for (const std::string& v : vars_of(triples[best])) bound.insert(v);
  }
  return order;
}

SolutionSet Evaluator::EvalBgp(
    const std::vector<sparql::TriplePattern>& triples,
    EvalStats* stats) const {
  std::vector<std::string> vars = BgpVars(triples);
  SolutionSet result(vars);
  std::map<std::string, int> vidx;
  for (size_t i = 0; i < vars.size(); ++i) vidx[vars[i]] = static_cast<int>(i);

  auto resolve_slot = [&](const sparql::Term& t) {
    Slot s;
    if (t.IsVariable()) {
      s.is_var = true;
      s.var_index = vidx[t.text()];
    } else {
      auto id = db_->nodes().Lookup(t.text());
      if (id) {
        s.constant = *id;
      } else {
        s.missing = true;
      }
    }
    return s;
  };

  // The unit table: one row with every variable unbound.
  const size_t w = vars.size();
  std::vector<uint32_t> rows(w, kUnbound);
  size_t num_rows = 1;

  for (size_t index : PlanBgp(triples)) {
    const sparql::TriplePattern& t = triples[index];
    ResolvedPattern rp;
    rp.subject = resolve_slot(t.subject);
    rp.object = resolve_slot(t.object);
    auto p = db_->predicates().Lookup(t.predicate.text());
    if (!p || rp.subject.missing || rp.object.missing) {
      num_rows = 0;
      rows.clear();
      break;
    }
    rp.predicate = *p;

    const util::BitMatrix& fwd = db_->Forward(rp.predicate);
    const util::BitMatrix& bwd = db_->Backward(rp.predicate);

    std::vector<uint32_t> next;
    size_t next_rows = 0;
    auto emit = [&](const uint32_t* row, int idx1, uint32_t val1, int idx2,
                    uint32_t val2) {
      size_t at = next.size();
      next.insert(next.end(), row, row + w);
      if (idx1 >= 0) next[at + idx1] = val1;
      if (idx2 >= 0) next[at + idx2] = val2;
      ++next_rows;
    };

    for (size_t r = 0; r < num_rows; ++r) {
      const uint32_t* row = rows.data() + r * w;
      uint32_t sval = rp.subject.is_var ? row[rp.subject.var_index]
                                        : rp.subject.constant;
      uint32_t oval =
          rp.object.is_var ? row[rp.object.var_index] : rp.object.constant;

      if (sval != kUnbound && oval != kUnbound) {
        if (fwd.Test(sval, oval)) emit(row, -1, 0, -1, 0);
      } else if (sval != kUnbound) {
        for (uint32_t o : fwd.Row(sval)) {
          emit(row, rp.object.var_index, o, -1, 0);
        }
      } else if (oval != kUnbound) {
        for (uint32_t s : bwd.Row(oval)) {
          emit(row, rp.subject.var_index, s, -1, 0);
        }
      } else if (rp.subject.is_var && rp.object.is_var &&
                 rp.subject.var_index == rp.object.var_index) {
        // Self-loop pattern ?x p ?x.
        fwd.RowSummary().ForEachSetBit([&](uint32_t s) {
          if (fwd.Test(s, s)) emit(row, rp.subject.var_index, s, -1, 0);
        });
      } else {
        fwd.ForEachRow([&](uint32_t s, std::span<const uint32_t> objects) {
          for (uint32_t o : objects) {
            emit(row, rp.subject.var_index, s, rp.object.var_index, o);
          }
        });
      }
    }
    rows = std::move(next);
    num_rows = next_rows;
    if (stats) stats->intermediate_rows += num_rows;
    if (num_rows == 0) break;
  }

  if (w == 0) {
    // All-constant BGP: the unit solution survives iff all triples hold.
    for (size_t i = 0; i < num_rows; ++i) result.AddUnboundRow();
    return result;
  }
  for (size_t r = 0; r < num_rows; ++r) {
    result.AddRow({rows.data() + r * w, w});
  }
  return result;
}

SolutionSet Evaluator::Join(const SolutionSet& left, const SolutionSet& right,
                            bool left_outer, EvalStats* stats) const {
  // Output schema: left vars, then right-only vars.
  std::vector<std::string> out_vars = left.vars();
  std::vector<std::string> shared;
  for (const std::string& v : right.vars()) {
    if (left.IndexOf(v) >= 0) {
      shared.push_back(v);
    } else {
      out_vars.push_back(v);
    }
  }
  SolutionSet out(out_vars);

  std::vector<int> l_shared, r_shared;
  for (const std::string& v : shared) {
    l_shared.push_back(left.IndexOf(v));
    r_shared.push_back(right.IndexOf(v));
  }
  // Mapping from output column to right column (or -1 = take from left).
  std::vector<int> out_from_right(out_vars.size(), -1);
  for (size_t i = 0; i < out_vars.size(); ++i) {
    out_from_right[i] = right.IndexOf(out_vars[i]);
  }

  auto merge = [&](std::span<const uint32_t> l, std::span<const uint32_t> r) {
    std::vector<uint32_t> row(out_vars.size());
    for (size_t i = 0; i < out_vars.size(); ++i) {
      uint32_t value = i < l.size() ? l[i] : kUnbound;
      if (value == kUnbound && out_from_right[i] >= 0 && !r.empty()) {
        value = r[out_from_right[i]];
      }
      row[i] = value;
    }
    out.AddRow(row);
  };

  auto compatible = [&](std::span<const uint32_t> l,
                        std::span<const uint32_t> r) {
    for (size_t i = 0; i < l_shared.size(); ++i) {
      uint32_t a = l[l_shared[i]];
      uint32_t b = r[r_shared[i]];
      if (a != kUnbound && b != kUnbound && a != b) return false;
    }
    return true;
  };

  // Hash join is valid when no shared column contains kUnbound.
  bool hashable = !shared.empty();
  for (size_t r = 0; hashable && r < left.NumRows(); ++r) {
    for (int c : l_shared) {
      if (left.Row(r)[c] == kUnbound) {
        hashable = false;
        break;
      }
    }
  }
  for (size_t r = 0; hashable && r < right.NumRows(); ++r) {
    for (int c : r_shared) {
      if (right.Row(r)[c] == kUnbound) {
        hashable = false;
        break;
      }
    }
  }

  if (shared.empty()) {
    // Cartesian product; with left_outer and empty right, pad.
    for (size_t l = 0; l < left.NumRows(); ++l) {
      if (right.NumRows() == 0) {
        if (left_outer) merge(left.Row(l), {});
        continue;
      }
      for (size_t r = 0; r < right.NumRows(); ++r) {
        merge(left.Row(l), right.Row(r));
      }
    }
  } else if (hashable) {
    std::unordered_map<std::vector<uint32_t>, std::vector<uint32_t>, RowKeyHash>
        table;
    std::vector<uint32_t> key(r_shared.size());
    for (size_t r = 0; r < right.NumRows(); ++r) {
      for (size_t i = 0; i < r_shared.size(); ++i) {
        key[i] = right.Row(r)[r_shared[i]];
      }
      table[key].push_back(static_cast<uint32_t>(r));
    }
    for (size_t l = 0; l < left.NumRows(); ++l) {
      for (size_t i = 0; i < l_shared.size(); ++i) {
        key[i] = left.Row(l)[l_shared[i]];
      }
      auto it = table.find(key);
      if (it == table.end()) {
        if (left_outer) merge(left.Row(l), {});
        continue;
      }
      for (uint32_t r : it->second) merge(left.Row(l), right.Row(r));
    }
  } else {
    // General compatibility join (unbound values possible): nested loop.
    for (size_t l = 0; l < left.NumRows(); ++l) {
      bool matched = false;
      for (size_t r = 0; r < right.NumRows(); ++r) {
        if (compatible(left.Row(l), right.Row(r))) {
          merge(left.Row(l), right.Row(r));
          matched = true;
        }
      }
      if (!matched && left_outer) merge(left.Row(l), {});
    }
  }

  if (stats) stats->intermediate_rows += out.NumRows();
  return out;
}

SolutionSet Evaluator::Union(const SolutionSet& left, const SolutionSet& right,
                             EvalStats* stats) const {
  std::vector<std::string> out_vars = left.vars();
  for (const std::string& v : right.vars()) {
    if (left.IndexOf(v) < 0) out_vars.push_back(v);
  }
  SolutionSet out(out_vars);
  std::vector<int> from_left(out_vars.size()), from_right(out_vars.size());
  for (size_t i = 0; i < out_vars.size(); ++i) {
    from_left[i] = left.IndexOf(out_vars[i]);
    from_right[i] = right.IndexOf(out_vars[i]);
  }
  std::vector<uint32_t> row(out_vars.size());
  for (size_t r = 0; r < left.NumRows(); ++r) {
    for (size_t i = 0; i < out_vars.size(); ++i) {
      row[i] = left.Value(r, from_left[i]);
    }
    out.AddRow(row);
  }
  for (size_t r = 0; r < right.NumRows(); ++r) {
    for (size_t i = 0; i < out_vars.size(); ++i) {
      row[i] = right.Value(r, from_right[i]);
    }
    out.AddRow(row);
  }
  if (stats) stats->intermediate_rows += out.NumRows();
  return out;
}

SolutionSet Evaluator::EvalNode(const sparql::Pattern& pattern,
                                EvalStats* stats) const {
  switch (pattern.kind()) {
    case sparql::PatternKind::kBgp:
      return EvalBgp(pattern.triples(), stats);
    case sparql::PatternKind::kJoin:
      return Join(EvalNode(pattern.left(), stats),
                  EvalNode(pattern.right(), stats), /*left_outer=*/false,
                  stats);
    case sparql::PatternKind::kOptional: {
      SolutionSet left = EvalNode(pattern.left(), stats);
      // Exact pruned evaluation: the non-monotone OPTIONAL extension must
      // be decided against the unpruned database (see EvaluatorOptions).
      SolutionSet right =
          options_.optional_rhs_db != nullptr
              ? Evaluator(options_.optional_rhs_db, options_)
                    .EvalNode(pattern.right(), stats)
              : EvalNode(pattern.right(), stats);
      return Join(left, right, /*left_outer=*/true, stats);
    }
    case sparql::PatternKind::kUnion:
      return Union(EvalNode(pattern.left(), stats),
                   EvalNode(pattern.right(), stats), stats);
  }
  return SolutionSet{};
}

SolutionSet Evaluator::EvaluatePattern(const sparql::Pattern& pattern,
                                       EvalStats* stats) const {
  util::Stopwatch timer;
  // Merging adjacent BGPs lets the planner order whole conjunctive blocks.
  std::unique_ptr<sparql::Pattern> merged =
      sparql::MergeBgps(pattern.Clone());
  SolutionSet result = EvalNode(*merged, stats);
  if (stats) stats->seconds = timer.ElapsedSeconds();
  return result;
}

SolutionSet Evaluator::Evaluate(const sparql::Query& query,
                                EvalStats* stats) const {
  util::Stopwatch timer;
  SolutionSet all = EvaluatePattern(*query.where, stats);
  SolutionSet result = std::move(all);
  if (!query.projection.empty()) {
    SolutionSet projected(query.projection);
    std::vector<int> source(query.projection.size());
    for (size_t i = 0; i < query.projection.size(); ++i) {
      source[i] = result.IndexOf(query.projection[i]);
    }
    std::vector<uint32_t> row(query.projection.size());
    for (size_t r = 0; r < result.NumRows(); ++r) {
      for (size_t i = 0; i < row.size(); ++i) {
        row[i] = result.Value(r, source[i]);
      }
      projected.AddRow(row);
    }
    result = std::move(projected);
  }
  if (query.distinct) result.SortAndDedupe();
  if (stats) stats->seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace sparqlsim::engine
