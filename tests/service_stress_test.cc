// Thread-sanitizer stress for the shared-lock evaluation path:
// concurrent uncached queries (each parsing, interning, lazily
// building indexes and evaluating through its own overlay) racing a
// writer that keeps inserting fresh facts with brand-new symbols.
// Run under the tsan preset (label tier1-tsan) to check the interner,
// the lazy index publication and the lock protocol; under the default
// preset it is a plain correctness smoke test.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "service/query_service.h"

namespace chainsplit {
namespace {

constexpr const char* kRules =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
    "rtc(X, Y) :- edge(Y, X).\n"
    "rtc(X, Y) :- edge(Z, X), rtc(Z, Y).\n";

TEST(ServiceStressTest, ConcurrentUncachedReadersVsFactWriter) {
  QueryService service;
  std::string seed = kRules;
  for (int i = 0; i < 30; ++i) {
    seed += StrCat("edge(a", i, ", a", i + 1, ").\n");
  }
  UpdateResponse seeded = service.Update(seed);
  ASSERT_TRUE(seeded.status.ok()) << seeded.status;

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 40;
  constexpr int kWrites = 60;

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);

  // Readers: uncached bypass queries through the overlay path, probing
  // both directions so different index columns get built lazily — and
  // concurrently — on the same base relations.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&service, &failed, r] {
      RequestOptions bypass;
      bypass.bypass_cache = true;
      for (int i = 0; i < kQueriesPerReader; ++i) {
        const std::string text =
            (i % 2 == 0) ? StrCat("?- tc(a", (r * 7 + i) % 30, ", Y).")
                         : StrCat("?- rtc(a", (r * 5 + i) % 30 + 1, ", Y).");
        QueryResponse response = service.Query(text, bypass);
        if (!response.status.ok() || response.rows.empty()) {
          failed.store(true);
        }
      }
    });
  }

  // Writer: keeps extending the chain with fresh facts whose node
  // names are brand-new symbols, exercising the interner against the
  // readers' concurrent parses.
  threads.emplace_back([&service, &failed] {
    for (int i = 0; i < kWrites; ++i) {
      UpdateResponse update =
          service.Update(StrCat("edge(w", i, ", w", i + 1, ").\n"));
      if (!update.status.ok() || update.new_facts != 1) failed.store(true);
    }
  });

  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shared_evals, kReaders * kQueriesPerReader);
  EXPECT_EQ(stats.updates, 1 + kWrites);

  // Every fact the writer inserted must be query-visible afterwards.
  RequestOptions bypass;
  bypass.bypass_cache = true;
  QueryResponse chain = service.Query("?- tc(w0, Y).", bypass);
  ASSERT_TRUE(chain.status.ok()) << chain.status;
  EXPECT_EQ(chain.rows.size(), static_cast<size_t>(kWrites));
}

TEST(ServiceStressTest, ConcurrentMixedCachedAndUncached) {
  // Cached hits, uncached overlay evaluations and exclusive-lock
  // evaluations (the `?-` queries embedded in an update) interleaving
  // on the same service.
  QueryService service;
  std::string seed = kRules;
  for (int i = 0; i < 20; ++i) {
    seed += StrCat("edge(b", i, ", b", i + 1, ").\n");
  }
  UpdateResponse seeded = service.Update(seed);
  ASSERT_TRUE(seeded.status.ok()) << seeded.status;

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&service, &failed, t] {
      for (int i = 0; i < 30; ++i) {
        const std::string query = StrCat("?- tc(b", i % 20, ", Y).");
        if (t == 3) {
          UpdateResponse update = service.Update(query + "\n");
          if (!update.status.ok() || update.query_responses.size() != 1 ||
              !update.query_responses[0].status.ok() ||
              update.query_responses[0].rows.size() !=
                  static_cast<size_t>(20 - i % 20)) {
            failed.store(true);
          }
          continue;
        }
        RequestOptions request;
        if (t % 2 == 0) request.bypass_cache = true;
        QueryResponse response = service.Query(query, request);
        if (!response.status.ok()) failed.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(service.stats().exclusive_evals, 30);
}

}  // namespace
}  // namespace chainsplit
