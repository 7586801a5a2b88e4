#include "rel/csv.h"

#include <algorithm>
#include <cctype>
#include <charconv>

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

StatusOr<int64_t> StageCsvFacts(Program* program, PredId pred,
                                std::string_view text,
                                const CsvOptions& options) {
  const size_t arity = static_cast<size_t>(program->preds().arity(pred));
  TermPool& pool = program->pool();
  const Program::Marker marker = program->Mark();
  auto fail = [&](std::string message) {
    program->RollbackTo(marker);
    return InvalidArgumentError(std::move(message));
  };

  std::vector<TermId> row;
  int64_t staged = 0;
  int line_number = 0;
  for (size_t at = 0; at <= text.size();) {
    size_t eol = text.find('\n', at);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(at, eol - at);
    at = eol + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line[0] == '#') continue;
    const size_t fields =
        static_cast<size_t>(
            std::count(line.begin(), line.end(), options.delimiter)) +
        1;
    if (fields != arity) {
      return fail(StrCat("line ", line_number, ": expected ", arity,
                         " fields for ", program->preds().Display(pred),
                         ", got ", fields));
    }
    row.clear();
    for (size_t from = 0; row.size() < arity;) {
      size_t to = line.find(options.delimiter, from);
      if (to == std::string_view::npos) to = line.size();
      const std::string_view field = line.substr(from, to - from);
      from = to + 1;
      if (!IsIntegerField(field)) {
        row.push_back(pool.MakeSymbol(field));
        continue;
      }
      int64_t value = 0;
      if (std::from_chars(field.data(), field.data() + field.size(), value)
              .ec != std::errc()) {
        return fail(StrCat("line ", line_number, ": integer field '", field,
                           "' out of range"));
      }
      row.push_back(pool.MakeInt(value));
    }
    program->StageFact(pred, row);
    ++staged;
  }
  return staged;
}

StatusOr<int64_t> LoadFactsFromString(Database* db, PredId pred,
                                      std::string_view text,
                                      const CsvOptions& options) {
  // Stage first, load only after the whole text validated: a parse
  // error anywhere leaves the relation exactly as it was.
  CS_RETURN_IF_ERROR(
      StageCsvFacts(&db->program(), pred, text, options).status());
  int64_t inserted = 0;
  CS_RETURN_IF_ERROR(db->LoadProgramFacts(&inserted));
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
