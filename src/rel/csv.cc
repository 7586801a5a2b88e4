#include "rel/csv.h"

#include <cctype>

#include "common/strings.h"

namespace chainsplit {
namespace {

bool IsIntegerField(std::string_view field) {
  if (field.empty()) return false;
  size_t start = field[0] == '-' ? 1 : 0;
  if (start == field.size()) return false;
  for (size_t i = start; i < field.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(field[i]))) return false;
  }
  return true;
}

}  // namespace

StatusOr<std::vector<Tuple>> ParseCsvTuples(Database* db, PredId pred,
                                            std::string_view text,
                                            const CsvOptions& options) {
  const int arity = db->program().preds().arity(pred);
  TermPool& pool = db->pool();

  std::vector<Tuple> staged;
  int line_number = 0;
  for (std::string_view line_raw : StrSplit(text, '\n')) {
    ++line_number;
    std::string line(line_raw);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = StrSplit(line, options.delimiter);
    if (static_cast<int>(fields.size()) != arity) {
      return InvalidArgumentError(
          StrCat("line ", line_number, ": expected ", arity, " fields for ",
                 db->program().preds().Display(pred), ", got ",
                 fields.size()));
    }
    Tuple tuple;
    tuple.reserve(fields.size());
    for (const std::string& field : fields) {
      if (IsIntegerField(field)) {
        tuple.push_back(pool.MakeInt(std::stoll(field)));
      } else {
        tuple.push_back(pool.MakeSymbol(field));
      }
    }
    staged.push_back(std::move(tuple));
  }
  return staged;
}

StatusOr<int64_t> LoadFactsFromString(Database* db, PredId pred,
                                      std::string_view text,
                                      const CsvOptions& options) {
  // Stage first, insert only after the whole text validated: a parse
  // error anywhere leaves the relation exactly as it was.
  CS_ASSIGN_OR_RETURN(std::vector<Tuple> staged,
                      ParseCsvTuples(db, pred, text, options));
  Relation* relation = db->GetOrCreateRelation(pred);
  relation->Reserve(relation->num_rows() +
                    static_cast<int64_t>(staged.size()));
  int64_t inserted = 0;
  for (const Tuple& tuple : staged) {
    if (relation->Insert(tuple)) ++inserted;
  }
  return inserted;
}

StatusOr<int64_t> LoadFactsFromFile(Database* db, PredId pred,
                                    std::string_view path,
                                    const CsvOptions& options) {
  CS_ASSIGN_OR_RETURN(std::string content,
                      ReadFileToString(std::string(path)));
  return LoadFactsFromString(db, pred, content, options);
}

StatusOr<std::string> DumpFactsToString(const Database& db, PredId pred,
                                        const CsvOptions& options) {
  const Relation* relation = db.GetRelation(pred);
  std::string out;
  if (relation == nullptr) return out;
  const TermPool& pool = db.pool();
  for (int64_t i = 0; i < relation->num_rows(); ++i) {
    Relation::Row t = relation->row(i);
    for (size_t c = 0; c < t.size(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      out += pool.ToString(t[c]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace chainsplit
