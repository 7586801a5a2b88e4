#include "rel/catalog.h"

#include <unordered_set>

namespace chainsplit {

RelationStats ComputeStats(const Relation& relation) {
  RelationStats stats;
  stats.cardinality = relation.size();
  stats.distinct.assign(relation.arity(), 0);
  std::vector<std::unordered_set<TermId>> seen(relation.arity());
  for (int64_t i = 0; i < relation.num_rows(); ++i) {
    Relation::Row t = relation.row(i);
    for (int c = 0; c < relation.arity(); ++c) seen[c].insert(t[c]);
  }
  for (int c = 0; c < relation.arity(); ++c) {
    stats.distinct[c] = static_cast<int64_t>(seen[c].size());
  }
  return stats;
}

Relation* Database::GetOrCreateRelation(PredId pred) {
  auto it = relations_.find(pred);
  if (it != relations_.end()) return &it->second;
  auto [inserted, ok] =
      relations_.emplace(pred, Relation(program_.preds().arity(pred)));
  return &inserted->second;
}

const Relation* Database::GetRelation(PredId pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : &it->second;
}

Status Database::LoadProgramFacts(int64_t* new_facts) {
  // Size each relation once for what it is about to receive, so the
  // drain neither regrows an arena nor rehashes a dedup table on the way.
  std::unordered_map<PredId, int64_t> incoming;
  program_.ForEachStagedFact(
      [&](PredId pred, std::span<const TermId>) { ++incoming[pred]; });
  for (const auto& [pred, rows] : incoming) {
    Relation* relation = GetOrCreateRelation(pred);
    relation->Reserve(relation->num_rows() + rows);
  }
  int64_t added = 0;
  PredId last = kNullPred;
  Relation* relation = nullptr;
  program_.ForEachStagedFact([&](PredId pred, std::span<const TermId> args) {
    if (pred != last) {
      relation = GetOrCreateRelation(pred);
      last = pred;
    }
    if (relation->Insert(
            Relation::Row(args.data(), static_cast<int>(args.size())))) {
      ++added;
    }
  });
  program_.ReleaseStagedFacts();
  if (new_facts != nullptr) *new_facts = added;
  return Status::Ok();
}

bool Database::InsertFact(PredId pred, const Tuple& tuple) {
  return GetOrCreateRelation(pred)->Insert(tuple);
}

RelationStats Database::Stats(PredId pred) {
  const Relation* relation = GetRelation(pred);
  int64_t size = relation == nullptr ? 0 : relation->size();
  std::lock_guard<std::mutex> lock(stats_mu_);
  CachedStats& cached = stats_[pred];
  if (cached.at_size != size) {
    if (relation == nullptr) {
      cached.stats = RelationStats{};
      cached.stats.distinct.assign(program_.preds().arity(pred), 0);
    } else {
      cached.stats = ComputeStats(*relation);
    }
    cached.at_size = size;
  }
  return cached.stats;
}

std::vector<PredId> Database::StoredPredicates() const {
  std::vector<PredId> preds;
  preds.reserve(relations_.size());
  for (const auto& [pred, relation] : relations_) preds.push_back(pred);
  return preds;
}

Relation* DatabaseOverlay::GetOrCreateRelation(PredId pred) {
  auto it = local_.find(pred);
  if (it != local_.end()) return &it->second;
  auto [inserted, ok] =
      local_.emplace(pred, Relation(program().preds().arity(pred)));
  // Copy-on-write: a predicate with base facts gets those rows copied
  // into the overlay so derivations see them; the base stays frozen.
  const Relation* base_rel =
      static_cast<const Database*>(base_)->GetRelation(pred);
  if (base_rel != nullptr && !base_rel->empty()) {
    inserted->second.UnionWith(*base_rel);
  }
  return &inserted->second;
}

const Relation* DatabaseOverlay::GetRelation(PredId pred) const {
  auto it = local_.find(pred);
  if (it != local_.end()) return &it->second;
  return static_cast<const Database*>(base_)->GetRelation(pred);
}

bool DatabaseOverlay::InsertFact(PredId pred, const Tuple& tuple) {
  return GetOrCreateRelation(pred)->Insert(tuple);
}

RelationStats DatabaseOverlay::Stats(PredId pred) {
  auto it = local_.find(pred);
  if (it == local_.end()) return base_->Stats(pred);
  const Relation& relation = it->second;
  CachedStats& cached = stats_[pred];
  if (cached.at_size != relation.size()) {
    cached.stats = ComputeStats(relation);
    cached.at_size = relation.size();
  }
  return cached.stats;
}

DatabaseOverlay::Telemetry DatabaseOverlay::telemetry() const {
  Telemetry t;
  t.relations = static_cast<int64_t>(local_.size());
  for (const auto& [pred, relation] : local_) {
    t.arena_bytes += relation.telemetry().arena_bytes;
  }
  return t;
}

}  // namespace chainsplit
