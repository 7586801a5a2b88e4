#include "term/term.h"

#include <algorithm>

#include "common/hash.h"

namespace chainsplit {

bool TermPool::CompoundKey::operator==(const CompoundKey& other) const {
  return functor_name_index == other.functor_name_index &&
         std::equal(args.begin(), args.end(), other.args.begin(),
                    other.args.end());
}

size_t TermPool::CompoundKeyHash::operator()(const CompoundKey& k) const {
  size_t seed = static_cast<size_t>(k.functor_name_index);
  HashCombine(&seed, HashRange(k.args.data(), k.args.size()));
  return seed;
}

TermPool::TermPool() { nil_ = MakeSymbol(kNilName); }

int32_t TermPool::InternNameLocked(std::string_view name) {
  auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  int32_t index = static_cast<int32_t>(names_.push_back(std::string(name)));
  name_index_.emplace(names_[index], index);
  name_terms_.emplace_back();
  return index;
}

TermId TermPool::AddNodeLocked(const Node& node) {
  return static_cast<TermId>(nodes_.push_back(node));
}

TermId TermPool::MakeInt(int64_t value) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  auto it = int_index_.find(value);
  if (it != int_index_.end()) return it->second;
  Node node{TermKind::kInt, /*ground=*/true,
            static_cast<int32_t>(int_values_.size())};
  int_values_.push_back(value);
  TermId id = AddNodeLocked(node);
  int_index_.emplace(value, id);
  return id;
}

TermId TermPool::MakeSymbolLocked(std::string_view name) {
  int32_t name_index = InternNameLocked(name);
  TermId& id = name_terms_[name_index].symbol;
  if (id == kNullTerm) {
    id = AddNodeLocked(Node{TermKind::kSymbol, /*ground=*/true, name_index});
  }
  return id;
}

TermId TermPool::MakeSymbol(std::string_view name) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  return MakeSymbolLocked(name);
}

TermId TermPool::MakeVariableLocked(std::string_view name) {
  int32_t name_index = InternNameLocked(name);
  TermId& id = name_terms_[name_index].variable;
  if (id == kNullTerm) {
    id = AddNodeLocked(
        Node{TermKind::kVariable, /*ground=*/false, name_index});
  }
  return id;
}

TermId TermPool::MakeVariable(std::string_view name) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  return MakeVariableLocked(name);
}

TermId TermPool::FreshVariable(std::string_view hint) {
  // Fresh names live in a reserved namespace: user variables start with
  // an upper-case letter or '_', but the parser never produces names
  // containing '#'.
  std::lock_guard<std::mutex> lock(intern_mu_);
  std::string name(hint);
  name += '#';
  name += std::to_string(fresh_counter_++);
  return MakeVariableLocked(name);
}

TermId TermPool::MakeCompoundLocked(std::string_view functor,
                                    std::span<const TermId> args) {
  CompoundKey key{InternNameLocked(functor), args};
  auto it = compound_index_.find(key);
  if (it != compound_index_.end()) return it->second;
  bool ground = true;
  for (TermId a : args) {
    CS_DCHECK(a >= 0 && a < static_cast<TermId>(nodes_.size()))
        << "argument TermId out of range";
    ground = ground && nodes_[Index(a)].ground;
  }
  size_t args_offset = args_.AppendRange(args.data(), args.size());
  Node node{TermKind::kCompound, ground, key.functor_name_index,
            static_cast<int32_t>(args_offset),
            static_cast<int32_t>(args.size())};
  TermId id = AddNodeLocked(node);
  key.args = this->args(id);  // the key must outlive the caller's span
  compound_index_.emplace(key, id);
  return id;
}

TermId TermPool::MakeCompound(std::string_view functor,
                              std::span<const TermId> args) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  return MakeCompoundLocked(functor, args);
}

TermId TermPool::MakeCons(TermId head, TermId tail) {
  TermId args[] = {head, tail};
  return MakeCompound(kConsFunctor, args);
}

int64_t TermPool::int_value(TermId t) const {
  const Node& node = nodes_[Index(t)];
  CS_DCHECK(node.kind == TermKind::kInt) << "int_value on non-int term";
  return int_values_[node.payload];
}

const std::string& TermPool::name(TermId t) const {
  const Node& node = nodes_[Index(t)];
  CS_DCHECK(node.kind == TermKind::kSymbol ||
            node.kind == TermKind::kVariable)
      << "name on non-atomic term";
  return names_[node.payload];
}

const std::string& TermPool::functor(TermId t) const {
  const Node& node = nodes_[Index(t)];
  CS_DCHECK(node.kind == TermKind::kCompound) << "functor on non-compound";
  return names_[node.payload];
}

std::span<const TermId> TermPool::args(TermId t) const {
  const Node& node = nodes_[Index(t)];
  if (node.kind != TermKind::kCompound) return {};
  // One AppendRange run never straddles a chunk, so the span is
  // contiguous from the first argument's address.
  return {args_.PtrTo(static_cast<size_t>(node.args_offset)),
          static_cast<size_t>(node.arity)};
}

bool TermPool::IsCons(TermId t) const {
  const Node& node = nodes_[Index(t)];
  return node.kind == TermKind::kCompound && node.arity == 2 &&
         names_[node.payload] == kConsFunctor;
}

void TermPool::Reserve(size_t ints, size_t names, size_t compounds) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  int_index_.reserve(int_index_.size() + ints);
  name_index_.reserve(name_index_.size() + names);
  name_terms_.reserve(name_terms_.size() + names);
  compound_index_.reserve(compound_index_.size() + compounds);
}

void TermPool::CollectVariables(TermId t, std::vector<TermId>* out) const {
  switch (kind(t)) {
    case TermKind::kInt:
    case TermKind::kSymbol:
      return;
    case TermKind::kVariable:
      if (std::find(out->begin(), out->end(), t) == out->end()) {
        out->push_back(t);
      }
      return;
    case TermKind::kCompound:
      if (IsGround(t)) return;
      for (TermId a : args(t)) CollectVariables(a, out);
      return;
  }
}

void TermPool::AppendTo(TermId t, std::string* out) const {
  switch (kind(t)) {
    case TermKind::kInt:
      out->append(std::to_string(int_value(t)));
      return;
    case TermKind::kSymbol:
    case TermKind::kVariable:
      out->append(name(t));
      return;
    case TermKind::kCompound:
      break;
  }
  if (IsCons(t)) {
    // Render with list sugar: [a, b | T] or [a, b].
    out->push_back('[');
    TermId cur = t;
    bool first = true;
    while (IsCons(cur)) {
      if (!first) out->append(", ");
      first = false;
      AppendTo(args(cur)[0], out);
      cur = args(cur)[1];
    }
    if (!IsNil(cur)) {
      out->append(" | ");
      AppendTo(cur, out);
    }
    out->push_back(']');
    return;
  }
  out->append(functor(t));
  out->push_back('(');
  bool first = true;
  for (TermId a : args(t)) {
    if (!first) out->append(", ");
    first = false;
    AppendTo(a, out);
  }
  out->push_back(')');
}

std::string TermPool::ToString(TermId t) const {
  if (t == kNullTerm) return "<null>";
  std::string out;
  AppendTo(t, &out);
  return out;
}

}  // namespace chainsplit
