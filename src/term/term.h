#ifndef CHAINSPLIT_TERM_TERM_H_
#define CHAINSPLIT_TERM_TERM_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/chunked_vector.h"
#include "common/logging.h"

namespace chainsplit {

/// Handle to a term interned in a TermPool. Terms are hash-consed: two
/// structurally equal terms always have the same TermId within a pool,
/// so term equality is integer equality. This is the core idiom that
/// makes the relational engine fast on function-symbol workloads: a
/// 10,000-element list is one TermId in a tuple.
using TermId = int32_t;

/// Sentinel for "no term".
inline constexpr TermId kNullTerm = -1;

/// The four term constructors of the logic language (§1.2 of the paper):
/// integers, constant symbols, variables and compound terms f(t1..tk).
enum class TermKind : uint8_t {
  kInt,
  kSymbol,
  kVariable,
  kCompound,
};

/// Arena of hash-consed terms. All terms used by a Program / Database
/// live in one pool; TermIds from different pools must not be mixed.
///
/// Thread-safety: interning (Make*) is serialized by an internal
/// mutex, and the node/name/argument arenas are append-only
/// ChunkedVectors, so const accessors are lock-free and safe to call
/// concurrently with interning. A reader may dereference any TermId it
/// obtained through a synchronized channel (the interning call itself,
/// or a lock handoff such as the service's db_mu_).
class TermPool {
 public:
  TermPool();
  TermPool(const TermPool&) = delete;
  TermPool& operator=(const TermPool&) = delete;

  /// Interns the integer `value`.
  TermId MakeInt(int64_t value);

  /// Interns the constant symbol `name` (e.g. `tom`, `montreal`).
  TermId MakeSymbol(std::string_view name);

  /// Interns the variable `name`. Variables are identified by name
  /// within a pool; rule standardization-apart is done by renaming to
  /// fresh variables (see FreshVariable).
  TermId MakeVariable(std::string_view name);

  /// Creates a new variable guaranteed distinct from all existing ones.
  /// `hint` is used as a name prefix for readable traces.
  TermId FreshVariable(std::string_view hint = "_G");

  /// Interns the compound term `functor(args...)`. `functor` is a
  /// symbol name such as "." (list cons) or "pair".
  TermId MakeCompound(std::string_view functor, std::span<const TermId> args);

  /// The empty list constant `[]`.
  TermId Nil() const { return nil_; }
  /// Interns the list cell `[head | tail]`.
  TermId MakeCons(TermId head, TermId tail);

  TermKind kind(TermId t) const { return nodes_[Index(t)].kind; }
  bool IsInt(TermId t) const { return kind(t) == TermKind::kInt; }
  bool IsSymbol(TermId t) const { return kind(t) == TermKind::kSymbol; }
  bool IsVariable(TermId t) const { return kind(t) == TermKind::kVariable; }
  bool IsCompound(TermId t) const { return kind(t) == TermKind::kCompound; }

  /// True when `t` contains no variables (cached at interning time).
  bool IsGround(TermId t) const { return nodes_[Index(t)].ground; }

  /// Value of an integer term. Requires IsInt(t).
  int64_t int_value(TermId t) const;

  /// Name of a symbol or variable term. Requires IsSymbol or IsVariable.
  const std::string& name(TermId t) const;

  /// Functor name of a compound term. Requires IsCompound(t).
  const std::string& functor(TermId t) const;

  /// Arguments of a compound term (empty for non-compounds).
  std::span<const TermId> args(TermId t) const;

  /// True if `t` is a cons cell `[H|T]`.
  bool IsCons(TermId t) const;
  /// True if `t` is `[]`.
  bool IsNil(TermId t) const { return t == nil_; }

  /// Renders `t` in source syntax, with `[a,b|T]` sugar for lists.
  std::string ToString(TermId t) const;

  /// Number of interned terms (monotonically increasing).
  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }

  /// Collects the distinct variables occurring in `t`, in first-
  /// occurrence order, appending to `*out`.
  void CollectVariables(TermId t, std::vector<TermId>* out) const;

  /// Sizes the hash-consing indexes for `ints` more integers, `names`
  /// more symbol/variable/functor names and `compounds` more compound
  /// terms, so a bulk load of known size (snapshot recovery) interns
  /// without rehashing as it goes.
  void Reserve(size_t ints, size_t names, size_t compounds);

 private:
  struct Node {
    TermKind kind;
    bool ground;
    // kInt: index into int_values_. kSymbol/kVariable: index into
    // names_. kCompound: index into names_ for the functor.
    int32_t payload;
    // kCompound: [args_offset, args_offset + arity) into args_.
    int32_t args_offset = 0;
    int32_t arity = 0;
  };

  // Index keys view the append-only arenas, whose elements never move:
  // a stored name key views its names_ entry and a stored compound key
  // its args_ run, so a lookup builds no temporary string or vector.
  struct CompoundKey {
    int32_t functor_name_index;
    std::span<const TermId> args;
    bool operator==(const CompoundKey& other) const;
  };
  struct CompoundKeyHash {
    size_t operator()(const CompoundKey& k) const;
  };
  // The symbol and the variable term of one name, if interned.
  struct NameTerms {
    TermId symbol = kNullTerm;
    TermId variable = kNullTerm;
  };

  static size_t Index(TermId t) {
    CS_DCHECK(t >= 0) << "null or invalid TermId";
    return static_cast<size_t>(t);
  }

  // Unlocked interning bodies; callers hold intern_mu_.
  int32_t InternNameLocked(std::string_view name);
  TermId AddNodeLocked(const Node& node);
  TermId MakeSymbolLocked(std::string_view name);
  TermId MakeVariableLocked(std::string_view name);
  TermId MakeCompoundLocked(std::string_view functor,
                            std::span<const TermId> args);

  // Append-only arenas: readers index them lock-free; the writer side
  // is serialized by intern_mu_.
  ChunkedVector<Node> nodes_;
  ChunkedVector<int64_t> int_values_;
  ChunkedVector<std::string> names_;
  ChunkedVector<TermId> args_;

  // Hash-consing indexes; touched only under intern_mu_.
  std::unordered_map<int64_t, TermId> int_index_;
  std::unordered_map<std::string_view, int32_t> name_index_;
  std::vector<NameTerms> name_terms_;  // by name index
  std::unordered_map<CompoundKey, TermId, CompoundKeyHash> compound_index_;

  mutable std::mutex intern_mu_;
  int64_t fresh_counter_ = 0;
  TermId nil_ = kNullTerm;

  void AppendTo(TermId t, std::string* out) const;
};

/// Functor used for list cells; `[H|T]` is `'.'(H, T)`.
inline constexpr std::string_view kConsFunctor = ".";
/// Symbol used for the empty list.
inline constexpr std::string_view kNilName = "[]";

}  // namespace chainsplit

#endif  // CHAINSPLIT_TERM_TERM_H_
