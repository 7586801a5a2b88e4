#ifndef CHAINSPLIT_REL_CSV_H_
#define CHAINSPLIT_REL_CSV_H_

#include <string_view>

#include "common/status.h"
#include "rel/catalog.h"

namespace chainsplit {

/// Bulk fact loading from delimiter-separated text, the practical path
/// for EDB relations too large to write as `p(a, b).` facts.
///
/// Each line is one tuple; fields are split at `delimiter`. A field
/// consisting of an optional '-' and digits is loaded as an integer
/// term; anything else as a constant symbol. Empty lines and lines
/// starting with '#' are skipped. Every line must have exactly
/// `arity(pred)` fields.
struct CsvOptions {
  char delimiter = ',';
};

/// Parses every line of `text` into facts of `pred` and stages them in
/// `*program` (Program::StageFact, the buffer the parser stages into)
/// without touching any relation; Database::LoadProgramFacts stores
/// them. Returns the number of rows staged. All-or-nothing: on a
/// malformed line the rows staged from `text` are dropped again, so a
/// bad line 10,000 never leaves lines 1..9,999 behind (interned terms
/// are the only side effect, and interning is semantically inert).
StatusOr<int64_t> StageCsvFacts(Program* program, PredId pred,
                                std::string_view text,
                                const CsvOptions& options = {});

/// Loads `text` into the relation of `pred` in `*db`. Returns the
/// number of *new* tuples inserted. Failure-atomic: on any parse error
/// the relation is untouched (stage via StageCsvFacts, then load).
StatusOr<int64_t> LoadFactsFromString(Database* db, PredId pred,
                                      std::string_view text,
                                      const CsvOptions& options = {});

/// Loads the file at `path` into the relation of `pred`.
StatusOr<int64_t> LoadFactsFromFile(Database* db, PredId pred,
                                    std::string_view path,
                                    const CsvOptions& options = {});

/// Writes the relation of `pred` as delimiter-separated text (inverse
/// of LoadFactsFromString for symbol/int relations).
StatusOr<std::string> DumpFactsToString(const Database& db, PredId pred,
                                        const CsvOptions& options = {});

}  // namespace chainsplit

#endif  // CHAINSPLIT_REL_CSV_H_
