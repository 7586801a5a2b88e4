#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <random>
#include <set>
#include <unordered_set>
#include <utility>

namespace perfbench {
namespace {

using Rng = std::mt19937_64;

// Timed operations per second of --seconds: about what each closed loop
// completes per second over one connection on a 4-core x86-64 VM, so a
// run there lasts about --seconds.
constexpr int kPointOpsPerSecond = 450;
constexpr int kDeepOpsPerSecond = 110;
constexpr int kFunctionalOpsPerSecond = 30;
// hot_rw_durable completes ~20,000 requests/s; it runs more than that
// per --seconds because its ~30 us requests are mostly system calls and
// context switches, whose cost drifts with the host's load, and a longer
// run averages over more of that drift.
constexpr int kHotOpsPerSecond = 32000;

// rng() % n rather than std::uniform_int_distribution: the inputs must
// depend on the seed alone, not on the standard library's algorithms.
int64_t Below(Rng& rng, int64_t n) {
  return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[Below(rng, static_cast<int64_t>(i))]);
  }
}

std::string SortedLines(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += '\n';
    out += rows[i];
  }
  return out;
}

std::string ListText(const std::vector<int64_t>& xs, size_t begin,
                     size_t end) {
  std::string out = "[";
  for (size_t i = begin; i < end; ++i) {
    if (i > begin) out += ", ";
    out += std::to_string(xs[i]);
  }
  return out + "]";
}

std::string ListText(const std::vector<int64_t>& xs) {
  return ListText(xs, 0, xs.size());
}

std::vector<int64_t> RandomInts(Rng& rng, int n) {
  std::vector<int64_t> xs(n);
  for (int64_t& x : xs) x = Below(rng, 1000);
  return xs;
}

// A read op whose reference answer is `rows`.
Op AddRead(Workload* w, const char* label, std::string line,
           std::vector<std::string> rows) {
  Op op;
  op.label = label;
  op.line = std::move(line);
  op.answer = static_cast<int>(w->answers.size());
  w->answers.push_back(SortedLines(std::move(rows)));
  return op;
}

Op MakeWrite(const char* label, std::string line) {
  Op op;
  op.kind = Op::Kind::kWrite;
  op.label = label;
  op.line = std::move(line);
  return op;
}

void Cycle(const std::vector<Op>& cycle, int64_t count, std::vector<Op>* out) {
  out->reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    out->push_back(cycle[static_cast<size_t>(i) % cycle.size()]);
  }
}

// point_recursive: 16 families x depth 5 x fanout 3 (1,936 persons) in
// 8 countries of 242 persons, with same_country materialized (468,512
// facts; countries are dealt evenly, so the set-up work is the same for
// every seed). Each
// request is sg(p, Y) or scsg(p, Y) for a bottom-generation person; the
// 2,592 distinct texts are cycled in a seeded order, more than twice the
// result cache's 1,024 entries, so every request misses it.
void PointRecursive(Rng& rng, int seconds, Workload* w) {
  constexpr int kFamilies = 16, kDepth = 5, kFanout = 3, kCountries = 8;
  constexpr int kWarmup = 48;
  std::vector<int> parent, depth;
  std::vector<std::vector<int>> children;
  auto person = [&](int up, int d) {
    const int p = static_cast<int>(parent.size());
    parent.push_back(up);
    depth.push_back(d);
    children.emplace_back();
    if (up >= 0) children[up].push_back(p);
    return p;
  };
  for (int f = 0; f < kFamilies; ++f) {
    std::vector<int> generation = {person(-1, 0)};
    for (int d = 1; d < kDepth; ++d) {
      std::vector<int> next;
      for (int anc : generation) {
        for (int k = 0; k < kFanout; ++k) next.push_back(person(anc, d));
      }
      generation = std::move(next);
    }
  }
  const int n = static_cast<int>(parent.size());
  std::vector<int> country(n);
  for (int p = 0; p < n; ++p) country[p] = p % kCountries;
  Shuffle(&country, rng);
  auto name = [](int p) { return "p" + std::to_string(p); };

  std::string& text = w->program;
  for (int p = 0; p < n; ++p) {
    if (parent[p] >= 0) text += "parent(" + name(p) + ", " + name(parent[p]) + ").\n";
  }
  for (int p = 0; p < n; ++p) {
    for (int a : children[p]) {
      for (int b : children[p]) {
        if (a != b) text += "sibling(" + name(a) + ", " + name(b) + ").\n";
      }
    }
  }
  std::vector<std::vector<int>> by_country(kCountries);
  for (int p = 0; p < n; ++p) {
    text += "country(" + name(p) + ", c" + std::to_string(country[p]) + ").\n";
    by_country[country[p]].push_back(p);
  }
  for (const std::vector<int>& group : by_country) {
    for (int a : group) {
      for (int b : group) {
        text += "same_country(" + name(a) + ", " + name(b) + ").\n";
      }
    }
  }
  text +=
      "sg(X, Y) :- sibling(X, Y).\n"
      "sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).\n"
      "scsg(X, Y) :- sibling(X, Y).\n"
      "scsg(X, Y) :- parent(X, X1), same_country(X1, Y1), parent(Y, Y1),\n"
      "              scsg(X1, Y1).\n";

  // Reference answers: sg(x) = siblings of x, plus the children of every
  // y1 in sg(parent of x); scsg additionally requires y1 to share the
  // parent's country. Memoized up the family trees.
  std::vector<std::vector<int>> memo[2] = {std::vector<std::vector<int>>(n),
                                           std::vector<std::vector<int>>(n)};
  std::vector<char> done[2] = {std::vector<char>(n, 0),
                               std::vector<char>(n, 0)};
  auto same_generation = [&](auto& self, int same_country, int x)
      -> const std::vector<int>& {
    if (done[same_country][x]) return memo[same_country][x];
    std::set<int> out;
    const int x1 = parent[x];
    if (x1 >= 0) {
      for (int s : children[x1]) {
        if (s != x) out.insert(s);
      }
      for (int y1 : self(self, same_country, x1)) {
        if (same_country && country[y1] != country[x1]) continue;
        out.insert(children[y1].begin(), children[y1].end());
      }
    }
    memo[same_country][x].assign(out.begin(), out.end());
    done[same_country][x] = 1;
    return memo[same_country][x];
  };
  auto query = [&](const char* pred, int same_country, int x) {
    std::vector<std::string> rows;
    for (int y : same_generation(same_generation, same_country, x)) {
      rows.push_back("Y = " + name(y));
    }
    return AddRead(w, pred, "?- " + std::string(pred) + "(" + name(x) + ", Y).",
                   std::move(rows));
  };
  std::vector<Op> cycle, warmup;
  for (int p = 0; p < n; ++p) {
    // Warm-up texts (one generation up) never occur in the timed cycle.
    std::vector<Op>* into = depth[p] == kDepth - 1   ? &cycle
                            : depth[p] == kDepth - 2 ? &warmup
                                                     : nullptr;
    if (into == nullptr) continue;
    into->push_back(query("sg", 0, p));
    into->push_back(query("scsg", 1, p));
  }
  Shuffle(&cycle, rng);
  Shuffle(&warmup, rng);
  warmup.resize(kWarmup);
  w->warmup = std::move(warmup);
  Cycle(cycle, int64_t{kPointOpsPerSecond} * seconds, &w->timed);
  w->replay_ops = 800;
}

// deep_closure: 1,100 disjoint random DAG components of 100 nodes and
// 144 edges (158,400 edge facts for every seed). Node 0 is the root; the
// other 99 sit in 11 layers of 9. Every node has a random parent in the
// layer above (the root, for the first layer), and further distinct
// random edges join adjacent layers. Every path from the root to a node
// has the same length, so every tc(root_k, Y) takes the same number of
// fixpoint iterations and the per-query cost has a single mode for the
// median latency to fall in. Each request is tc(root_k, Y), cycled over
// more components than the result cache holds.
void DeepClosure(Rng& rng, int seconds, Workload* w) {
  constexpr int kComponents = 1100, kLayers = 11, kWidth = 9;
  constexpr int kNodes = 1 + kLayers * kWidth;
  constexpr int kExtraEdges = 45, kWarmup = 160;
  auto node = [](int k, int j) {
    return "n" + std::to_string(k) + "_" + std::to_string(j);
  };
  auto random_in_layer = [&](int layer) {
    return 1 + layer * kWidth + static_cast<int>(Below(rng, kWidth));
  };
  std::string& text = w->program;
  std::vector<Op> cycle, warmup;
  for (int k = 0; k < kComponents; ++k) {
    std::set<std::pair<int, int>> edges;
    for (int j = 1; j < kNodes; ++j) {
      const int layer = (j - 1) / kWidth;
      edges.insert({layer == 0 ? 0 : random_in_layer(layer - 1), j});
    }
    while (edges.size() < static_cast<size_t>(kNodes - 1 + kExtraEdges)) {
      const int layer = static_cast<int>(Below(rng, kLayers - 1));
      edges.insert({random_in_layer(layer), random_in_layer(layer + 1)});
    }
    std::vector<std::vector<int>> out(kNodes);
    for (const auto& [a, b] : edges) {
      text += "edge(" + node(k, a) + ", " + node(k, b) + ").\n";
      out[a].push_back(b);
    }
    // Reference answers by depth-first search from the source node.
    auto reach = [&](int source) {
      std::vector<char> seen(kNodes, 0);
      std::vector<int> stack = {source};
      std::vector<std::string> rows;
      while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        for (int u : out[v]) {
          if (seen[u]) continue;
          seen[u] = 1;
          rows.push_back("Y = " + node(k, u));
          stack.push_back(u);
        }
      }
      return rows;
    };
    cycle.push_back(
        AddRead(w, "tc", "?- tc(" + node(k, 0) + ", Y).", reach(0)));
    warmup.push_back(
        AddRead(w, "tc", "?- tc(" + node(k, 1) + ", Y).", reach(1)));
  }
  text +=
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
  Shuffle(&cycle, rng);
  Shuffle(&warmup, rng);
  warmup.resize(kWarmup);
  w->warmup = std::move(warmup);
  Cycle(cycle, int64_t{kDeepOpsPerSecond} * seconds, &w->timed);
  w->replay_ops = 300;
}

struct Flight {
  int id = 0;
  int to = 0;
  int64_t fare = 0;
};

// Every itinerary from `city` to `dest` whose total fare stays within
// `bound` (fares are positive, so the search is finite).
void Itineraries(const std::vector<std::vector<Flight>>& from, int city,
                 int dest, int64_t fare, int64_t bound,
                 std::vector<int64_t>* path, std::vector<std::string>* rows) {
  for (const Flight& f : from[city]) {
    const int64_t total = fare + f.fare;
    if (total > bound) continue;
    path->push_back(f.id);
    if (f.to == dest) {
      rows->push_back("L = " + ListText(*path) + ", F = " + std::to_string(total));
    }
    Itineraries(from, f.to, dest, total, bound, path, rows);
    path->pop_back();
  }
}

// functional_chains: a seeded mix of freshly generated functional
// queries, each kind once per block of five in shuffled order: travel
// with a fare bound (partial evaluation, Alg. 3.3), isort of 40 ints and
// append(Xs, Ys, list40) (buffered chain-split, Alg. 3.2),
// append(l200, l200, Zs) and qsort of 60 ints (SLD). No text repeats,
// so no request can hit the result cache.
void FunctionalChains(Rng& rng, int seconds, Workload* w) {
  // Seven flights leave every city: at eight per departure city the
  // planner's join-expansion gate cuts the binding of the next city and
  // rejects the query as not finitely evaluable.
  constexpr int kCities = 30, kFlightsPerCity = 7;
  constexpr int64_t kFareLo = 100, kFareSpan = 400;
  constexpr int64_t kBoundLo = 400, kBoundSpan = 150;
  constexpr int kWarmup = 60;
  std::string& text = w->program;
  std::vector<std::vector<Flight>> from(kCities);
  for (int f = 0; f < kCities * kFlightsPerCity; ++f) {
    const int a = f / kFlightsPerCity;
    int b = static_cast<int>(Below(rng, kCities));
    if (b == a) b = (b + 1) % kCities;
    const int64_t fare = kFareLo + Below(rng, kFareSpan);
    from[a].push_back({f, b, fare});
    text += "flight(" + std::to_string(f) + ", c" + std::to_string(a) + ", c" +
            std::to_string(b) + ", " + std::to_string(fare) + ").\n";
  }
  text +=
      "travel(L, D, A, F) :- flight(Fno, D, A, F), cons(Fno, [], L).\n"
      "travel(L, D, A, F) :- flight(Fno, D, A1, F1), travel(L1, A1, A, F2),\n"
      "                      F is F1 + F2, cons(Fno, L1, L).\n"
      "isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).\n"
      "isort([], []).\n"
      "insert(X, [], [X]).\n"
      "insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).\n"
      "insert(X, [Y|Ys], [X, Y|Ys]) :- X =< Y.\n"
      "qsort([X|Xs], Ys) :- partition(Xs, X, Littles, Bigs),\n"
      "                     qsort(Littles, Ls), qsort(Bigs, Bs),\n"
      "                     append(Ls, [X|Bs], Ys).\n"
      "qsort([], []).\n"
      "partition([X|Xs], Y, [X|Ls], Bs) :- X =< Y, partition(Xs, Y, Ls, Bs).\n"
      "partition([X|Xs], Y, Ls, [X|Bs]) :- X > Y, partition(Xs, Y, Ls, Bs).\n"
      "partition([], Y, [], []).\n"
      "append([], L, L).\n"
      "append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).\n";

  std::unordered_set<std::string> seen;
  auto make = [&](int kind) {
    while (true) {
      std::vector<std::string> rows;
      std::string line;
      const char* label = "";
      if (kind == 0) {
        const int a = static_cast<int>(Below(rng, kCities));
        int b = static_cast<int>(Below(rng, kCities));
        if (b == a) b = (b + 1) % kCities;
        const int64_t bound = kBoundLo + Below(rng, kBoundSpan);
        label = "travel";
        line = "?- travel(L, c" + std::to_string(a) + ", c" + std::to_string(b) +
               ", F), F =< " + std::to_string(bound) + ".";
        std::vector<int64_t> path;
        Itineraries(from, a, b, 0, bound, &path, &rows);
      } else if (kind == 1) {
        std::vector<int64_t> xs = RandomInts(rng, 40);
        label = "isort";
        line = "?- isort(" + ListText(xs) + ", Ys).";
        std::sort(xs.begin(), xs.end());
        rows.push_back("Ys = " + ListText(xs));
      } else if (kind == 2) {
        const std::vector<int64_t> xs = RandomInts(rng, 40);
        label = "append_split";
        line = "?- append(Xs, Ys, " + ListText(xs) + ").";
        for (size_t i = 0; i <= xs.size(); ++i) {
          rows.push_back("Xs = " + ListText(xs, 0, i) +
                         ", Ys = " + ListText(xs, i, xs.size()));
        }
      } else if (kind == 3) {
        const std::vector<int64_t> xs = RandomInts(rng, 200);
        const std::vector<int64_t> ys = RandomInts(rng, 200);
        label = "append_concat";
        line = "?- append(" + ListText(xs) + ", " + ListText(ys) + ", Zs).";
        std::vector<int64_t> zs = xs;
        zs.insert(zs.end(), ys.begin(), ys.end());
        rows.push_back("Zs = " + ListText(zs));
      } else {
        std::vector<int64_t> xs = RandomInts(rng, 60);
        label = "qsort";
        line = "?- qsort(" + ListText(xs) + ", Ys).";
        std::sort(xs.begin(), xs.end());
        rows.push_back("Ys = " + ListText(xs));
      }
      if (seen.insert(line).second) {
        return AddRead(w, label, std::move(line), std::move(rows));
      }
    }
  };
  auto mix = [&](int64_t count, std::vector<Op>* out) {
    std::vector<int> block = {0, 1, 2, 3, 4};
    for (int64_t i = 0; i < count; ++i) {
      if (i % 5 == 0) Shuffle(&block, rng);
      out->push_back(make(block[i % 5]));
    }
  };
  mix(kWarmup, &w->warmup);
  mix(int64_t{kFunctionalOpsPerSecond} * seconds, &w->timed);
  w->replay_ops = 150;
}

// hot_rw_durable: repeated point reads beside fresh writes, closed loop.
// The data dir holds a snapshot of item/2 and stock/2 plus a WAL tail of
// stock inserts. Reads go to a hot set of 32 item keys (static) and 4
// stock keys (written); about 6% of operations insert a fresh stock
// fact, which invalidates every cached stock read. About three reads in
// four hit the result cache and one misses, so the median read is a hit
// and the 90th percentile a miss, each well inside its own cost mode.
// Writes are spread over 2,048 keys, so a hot stock read's answer grows
// by only a few rows over a run and the cost of a miss stays level.
void HotReadWrite(Rng& rng, int seconds, Workload* w) {
  constexpr int kItems = 400000, kStockKeys = 50000;
  constexpr int kTailRecords = 9000, kFactsPerRecord = 4;
  constexpr int kHotItems = 32, kHotStock = 8, kWriteKeys = 2048;
  constexpr int64_t kWritePerMillion = 60000;
  int64_t fresh = 1000000;  // written values never collide with base ones
  std::string& base = w->fixture_base;
  std::vector<int64_t> item_value(kItems);
  for (int k = 0; k < kItems; ++k) {
    item_value[k] = Below(rng, 1000000);
    base += "item(i" + std::to_string(k) + ", " + std::to_string(item_value[k]) + ").\n";
  }
  std::vector<std::set<int64_t>> stock(kStockKeys);
  for (int k = 0; k < kStockKeys; ++k) {
    const int64_t v = Below(rng, 1000000);
    stock[k].insert(v);
    base += "stock(s" + std::to_string(k) + ", " + std::to_string(v) + ").\n";
  }
  for (int r = 0; r < kTailRecords; ++r) {
    std::string record;
    for (int f = 0; f < kFactsPerRecord; ++f) {
      const int k = static_cast<int>(Below(rng, kStockKeys));
      const int64_t v = fresh++;
      stock[k].insert(v);
      record += "stock(s" + std::to_string(k) + ", " + std::to_string(v) + "). ";
    }
    w->fixture_tail.push_back(std::move(record));
  }

  std::vector<int> keys(kItems);
  for (int k = 0; k < kItems; ++k) keys[k] = k;
  Shuffle(&keys, rng);
  std::vector<Op> item_reads;
  for (int i = 0; i < kHotItems; ++i) {
    const int k = keys[i];
    item_reads.push_back(AddRead(w, "item", "?- item(i" + std::to_string(k) + ", V).",
                                 {"V = " + std::to_string(item_value[k])}));
  }
  std::vector<int> write_keys(kWriteKeys);
  for (int k = 0; k < kWriteKeys; ++k) write_keys[k] = k;
  Shuffle(&write_keys, rng);
  std::vector<Op> stock_reads;
  for (int i = 0; i < kHotStock; ++i) {
    const int k = write_keys[i];
    Op op;
    op.label = "stock";
    op.line = "?- stock(s" + std::to_string(k) + ", V).";
    op.key = k;
    stock_reads.push_back(op);
    w->stock[k].assign(stock[k].begin(), stock[k].end());
  }
  w->warmup = item_reads;
  w->warmup.insert(w->warmup.end(), stock_reads.begin(), stock_reads.end());

  const int64_t count = int64_t{kHotOpsPerSecond} * seconds;
  for (int64_t i = 0; i < count; ++i) {
    if (Below(rng, 1000000) < kWritePerMillion) {
      const int k = static_cast<int>(Below(rng, kWriteKeys));
      Op op = MakeWrite("write", "stock(s" + std::to_string(k) + ", " +
                                     std::to_string(fresh) + ").");
      op.key = k;
      op.value = fresh++;
      w->timed.push_back(std::move(op));
    } else if (Below(rng, 2) == 0) {
      w->timed.push_back(item_reads[Below(rng, kHotItems)]);
    } else {
      w->timed.push_back(stock_reads[Below(rng, kHotStock)]);
    }
  }
  w->replay_ops = 4000;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "point_recursive", "deep_closure", "functional_chains",
      "hot_rw_durable"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int seconds) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  Rng rng(seed);
  if (name == "point_recursive") {
    PointRecursive(rng, seconds, w.get());
  } else if (name == "deep_closure") {
    DeepClosure(rng, seconds, w.get());
  } else if (name == "functional_chains") {
    FunctionalChains(rng, seconds, w.get());
  } else if (name == "hot_rw_durable") {
    HotReadWrite(rng, seconds, w.get());
  } else {
    return nullptr;
  }
  return w;
}

std::string CanonicalAnswer(const std::string& frame_body) {
  std::vector<std::string> rows;
  size_t start = 0;
  while (start < frame_body.size()) {
    size_t end = frame_body.find('\n', start);
    if (end == std::string::npos) end = frame_body.size();
    std::string line = frame_body.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '%' || line == "no answers") continue;
    rows.push_back(std::move(line));
  }
  return SortedLines(std::move(rows));
}

bool CheckStockRead(const StockModel& model, int key,
                    const std::vector<TimedWrite>& writes, int64_t sent_ns,
                    int64_t received_ns, const std::string& frame_body) {
  std::set<int64_t> shown;
  const std::string rows = CanonicalAnswer(frame_body);
  size_t start = 0;
  while (start < rows.size()) {
    size_t end = rows.find('\n', start);
    if (end == std::string::npos) end = rows.size();
    const std::string row = rows.substr(start, end - start);
    start = end + 1;
    char* parsed_end = nullptr;
    if (row.rfind("V = ", 0) != 0) return false;
    const long long value = std::strtoll(row.c_str() + 4, &parsed_end, 10);
    if (parsed_end == row.c_str() + 4 || *parsed_end != '\0') return false;
    shown.insert(value);
  }
  std::set<int64_t> allowed;
  auto base = model.find(key);
  if (base != model.end()) {
    for (int64_t v : base->second) {
      if (shown.count(v) == 0) return false;
      allowed.insert(v);
    }
  }
  for (const TimedWrite& write : writes) {
    if (write.acked_ns < sent_ns && shown.count(write.value) == 0) return false;
    if (write.sent_ns < received_ns) allowed.insert(write.value);
  }
  for (int64_t v : shown) {
    if (allowed.count(v) == 0) return false;
  }
  return true;
}

}  // namespace perfbench
