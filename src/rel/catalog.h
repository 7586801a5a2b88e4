#ifndef CHAINSPLIT_REL_CATALOG_H_
#define CHAINSPLIT_REL_CATALOG_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "rel/relation.h"

namespace chainsplit {

/// Per-relation statistics used by the chain-split cost model (§2.1 of
/// the paper): cardinality and per-column distinct-value counts, from
/// which selectivities and join expansion ratios are derived.
struct RelationStats {
  int64_t cardinality = 0;
  std::vector<int64_t> distinct;  // one entry per column

  /// Average number of tuples sharing one value of `column`
  /// (cardinality / distinct). This is the per-column fan-out used in
  /// the join expansion ratio. Returns 0 for an empty relation.
  double FanOut(int column) const {
    if (cardinality == 0) return 0.0;
    return static_cast<double>(cardinality) /
           static_cast<double>(distinct[column]);
  }
};

/// Computes exact statistics for `relation` by one scan.
RelationStats ComputeStats(const Relation& relation);

/// What an evaluator needs from a deductive database: the term
/// universe, the program, and relation storage. Two implementations:
///
///  - Database: the real thing — owns the pool, the program, and the
///    EDB relations.
///  - DatabaseOverlay: a query-local copy-on-write view over a frozen
///    Database. Reads fall through to the base; every write lands in
///    an overlay-local relation, so evaluating through an overlay
///    never mutates the base. This is what lets the query service run
///    whole uncached evaluations under the *shared* side of its
///    database lock: magic seeds, adorned/magic relations, deltas and
///    answer relations are all per-query scratch.
///
/// Evaluators (planner, seminaive, top-down, buffered chain, partial,
/// counting) take an EvalDb* and work identically against either.
class EvalDb {
 public:
  virtual ~EvalDb() = default;

  virtual TermPool& pool() = 0;
  virtual const TermPool& pool() const = 0;
  virtual Program& program() = 0;
  virtual const Program& program() const = 0;

  /// Relation for `pred`, created (empty, with the predicate's arity)
  /// on first access.
  virtual Relation* GetOrCreateRelation(PredId pred) = 0;

  /// Relation for `pred`, or nullptr when no facts were ever stored.
  virtual const Relation* GetRelation(PredId pred) const = 0;

  /// Inserts one fact tuple for `pred`. Returns true when new.
  virtual bool InsertFact(PredId pred, const Tuple& tuple) = 0;

  /// Cached statistics for `pred` (recomputed when the relation grew).
  virtual RelationStats Stats(PredId pred) = 0;
};

/// The deductive database of the paper's model: an EDB (relations), an
/// IDB (the Program's rules) and a term universe, sharing one TermPool
/// so relation values and rule constants are the same interned terms.
///
/// Typical use:
///   Database db;
///   CS_RETURN_IF_ERROR(ParseProgram(source, &db.program()));
///   CS_RETURN_IF_ERROR(db.LoadProgramFacts());
///
/// Thread-safety: structural mutation (creating relations, inserting
/// facts, loading) requires exclusive access. With no mutator running,
/// the read surface — GetRelation, relation probes (which may lazily
/// build indexes), Stats, interning via pool()/program() — is safe for
/// concurrent readers; this is exactly the regime the query service's
/// shared lock establishes.
class Database : public EvalDb {
 public:
  Database() : program_(&pool_) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  TermPool& pool() override { return pool_; }
  const TermPool& pool() const override { return pool_; }
  Program& program() override { return program_; }
  const Program& program() const override { return program_; }

  Relation* GetOrCreateRelation(PredId pred) override;
  const Relation* GetRelation(PredId pred) const override;

  /// Drains the facts staged in program() (by the parser or the CSV
  /// loader) into their EDB relations and releases the staging buffer,
  /// so each loaded fact is held once, in its relation. When
  /// `new_facts` is given, it receives the number of facts that were
  /// not already stored.
  Status LoadProgramFacts(int64_t* new_facts = nullptr);

  bool InsertFact(PredId pred, const Tuple& tuple) override;

  /// Cached statistics for `pred` (recomputed when the relation grew).
  /// Safe for concurrent readers: the cache is mutex-guarded.
  RelationStats Stats(PredId pred) override;

  /// Predicates that currently have a stored relation.
  std::vector<PredId> StoredPredicates() const;

 private:
  struct CachedStats {
    int64_t at_size = -1;
    RelationStats stats;
  };

  TermPool pool_;
  Program program_;
  std::unordered_map<PredId, Relation> relations_;
  std::unordered_map<PredId, CachedStats> stats_;
  mutable std::mutex stats_mu_;  // guards stats_ (a cache, not state)
};

/// Query-local copy-on-write view over a frozen base Database (see
/// EvalDb). Lookups resolve to overlay-local relations first — the
/// magic/adorned/delta/answer relations a query materializes — and
/// fall through to the base for everything else. The first write to a
/// predicate that has base facts copies the base relation into the
/// overlay (copy-on-write); predicates the query never writes are read
/// directly from the base with zero copying.
///
/// The overlay itself is single-threaded (one per query); it only
/// requires that nobody mutates the base while it is alive.
class DatabaseOverlay final : public EvalDb {
 public:
  explicit DatabaseOverlay(Database* base) : base_(base) {}
  DatabaseOverlay(const DatabaseOverlay&) = delete;
  DatabaseOverlay& operator=(const DatabaseOverlay&) = delete;

  TermPool& pool() override { return base_->pool(); }
  const TermPool& pool() const override {
    return static_cast<const Database*>(base_)->pool();
  }
  Program& program() override { return base_->program(); }
  const Program& program() const override {
    return static_cast<const Database*>(base_)->program();
  }

  Relation* GetOrCreateRelation(PredId pred) override;
  const Relation* GetRelation(PredId pred) const override;
  bool InsertFact(PredId pred, const Tuple& tuple) override;
  RelationStats Stats(PredId pred) override;

  /// Scratch footprint of this overlay, for service telemetry.
  struct Telemetry {
    int64_t relations = 0;    // overlay-local relations materialized
    int64_t arena_bytes = 0;  // their arena capacity in bytes
  };
  Telemetry telemetry() const;

 private:
  struct CachedStats {
    int64_t at_size = -1;
    RelationStats stats;
  };

  Database* base_;
  std::unordered_map<PredId, Relation> local_;
  std::unordered_map<PredId, CachedStats> stats_;
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_REL_CATALOG_H_
