#include "service/session.h"

#include <cctype>
#include <cstdint>

#include "common/strings.h"

namespace chainsplit {

Session::Session(QueryService* service, SessionOptions options)
    : service_(service), options_(options) {
  request_.cancel = options_.cancel;
}

const char* Session::HelpText() {
  return
      "  ?- goal, goal.          run a query\n"
      "  head :- body.           add a rule (or `fact.`)\n"
      "  :load FILE              load a program file\n"
      "  :csv PRED/ARITY FILE    bulk-load facts (comma separated)\n"
      "  :plan                   toggle plan printing\n"
      "  :stats                  toggle evaluation statistics\n"
      "  :deadline MS            per-query deadline (0 = none)\n"
      "  :preds                  list predicates with stored facts\n"
      "  :cache [json]           service cache/deadline counters\n"
      "  :net [json]             network front-end counters\n"
      "  :metrics                Prometheus text exposition of all series\n"
      "  :trace on|off|last      per-query tracing; `last` prints the\n"
      "                          newest trace (Chrome trace_event JSON)\n"
      "  :snapshot               write a snapshot, truncate the WAL\n"
      "  :wal [json]             durability counters (WAL/snapshots)\n"
      "  :quit                   exit\n";
}

void Session::AppendQueryResponse(const QueryResponse& response,
                                  std::string* out) {
  if (!response.status.ok()) {
    ++error_count_;
    *out += StrCat("error: ", response.status.ToString(), "\n");
    return;
  }
  if (options_.show_plan) {
    *out += StrCat("% technique: ", TechniqueToString(response.technique),
                   response.result_cache_hit ? " (result cache)" : "", "\n");
    *out += response.plan;
  }
  if (response.vars.empty()) {
    *out += response.rows.empty() ? "no\n" : "yes\n";
  } else if (response.rows.empty()) {
    *out += "no answers\n";
  } else {
    for (const std::vector<std::string>& row : response.rows) {
      std::vector<std::string> bindings;
      bindings.reserve(row.size());
      for (size_t i = 0; i < response.vars.size(); ++i) {
        bindings.push_back(StrCat(response.vars[i], " = ", row[i]));
      }
      *out += StrCat(StrJoin(bindings, ", "), "\n");
    }
    *out += StrCat("% ", response.rows.size(), " answer(s)\n");
  }
  if (options_.show_stats) {
    *out += StrCat(
        "% seminaive: ", response.seminaive_stats.total_derived,
        " derived, ", response.seminaive_stats.counters.tuples_considered,
        " considered in ", response.seminaive_stats.iterations,
        " iterations; buffered: ", response.buffered_stats.nodes, " states, ",
        response.buffered_stats.buffered_values,
        " buffered; sld: ", response.topdown_stats.steps, " steps\n");
  }
}

void Session::Consume(const std::string& text, std::string* out) {
  // A lone query statement goes through the cached query path; other
  // input (facts, rules, mixed files) is an update.
  if (CanonicalizeQueryText(text).has_value()) {
    AppendQueryResponse(service_->Query(text, request_), out);
    return;
  }
  UpdateResponse update = service_->Update(text, request_);
  if (!update.status.ok()) {
    ++error_count_;
    *out += StrCat("parse error: ", update.status.ToString(), "\n");
    return;
  }
  for (const QueryResponse& qr : update.query_responses) {
    AppendQueryResponse(qr, out);
  }
}

bool Session::HandleCommand(const std::string& line, std::string* out) {
  size_t space = line.find(' ');
  std::string cmd = line.substr(0, space);
  std::string args = space == std::string::npos ? "" : line.substr(space + 1);
  if (cmd == ":quit" || cmd == ":q") return false;
  if (cmd == ":help") {
    *out += HelpText();
  } else if (cmd == ":load") {
    UpdateResponse loaded = service_->LoadFile(args, request_);
    if (!loaded.status.ok()) {
      ++error_count_;
      *out += StrCat("error: ", loaded.status.ToString(), "\n");
    } else {
      for (const QueryResponse& qr : loaded.query_responses) {
        AppendQueryResponse(qr, out);
      }
      *out += StrCat("% loaded ", args, "\n");
    }
  } else if (cmd == ":csv") {
    std::vector<std::string> parts = StrSplit(args, ' ');
    std::vector<std::string> spec =
        parts.empty() ? std::vector<std::string>()
                      : StrSplit(parts[0], '/');
    int64_t arity = 0;
    if (parts.size() != 2 || spec.size() != 2 ||
        !ParseInt(spec[1], INT32_MIN, INT32_MAX, &arity)) {
      ++error_count_;
      *out += "usage: :csv PRED/ARITY FILE\n";
    } else {
      StatusOr<int64_t> loaded = service_->LoadCsv(
          spec[0], static_cast<int>(arity), parts[1]);
      if (!loaded.ok()) {
        ++error_count_;
        *out += StrCat("error: ", loaded.status().ToString(), "\n");
      } else {
        *out += StrCat("% ", *loaded, " new tuples into ", parts[0], "\n");
      }
    }
  } else if (cmd == ":plan") {
    options_.show_plan = !options_.show_plan;
    *out += StrCat("% plan printing ", options_.show_plan ? "on" : "off",
                   "\n");
  } else if (cmd == ":stats") {
    options_.show_stats = !options_.show_stats;
    *out += StrCat("% statistics ", options_.show_stats ? "on" : "off", "\n");
  } else if (cmd == ":deadline") {
    int64_t ms = 0;
    if (!ParseInt(args, 0, INT64_MAX, &ms)) {
      ++error_count_;
      *out += "usage: :deadline MS\n";
    } else {
      request_.deadline = std::chrono::milliseconds(ms);
      *out += StrCat("% deadline ", ms, " ms\n");
    }
  } else if (cmd == ":preds") {
    for (const auto& [name, size] : service_->ListPredicates()) {
      *out += StrCat("  ", name, "  ", size, " tuples\n");
    }
  } else if (cmd == ":cache" && args == "json") {
    ServiceStats s = service_->stats();
    *out += StrCat(
        "{\"queries\":", s.queries, ",\"updates\":", s.updates,
        ",\"result_cache\":{\"hits\":", s.result_cache_hits,
        ",\"misses\":", s.result_cache_misses,
        ",\"invalidations\":", s.result_cache_invalidations, "}",
        // perfbench's traced mode reads this key; ROADMAP item 1b
        // retires it together with service.plan_hit_rate.
        ",\"plan_cache\":{\"hits\":0,\"misses\":0}",
        ",\"evals\":{\"shared\":", s.shared_evals,
        ",\"exclusive\":", s.exclusive_evals, "}",
        ",\"overlay\":{\"relations\":", s.overlay_relations,
        ",\"bytes\":", s.overlay_bytes, "}",
        ",\"deadline_exceeded\":", s.deadline_exceeded,
        ",\"cancelled\":", s.cancelled, "}\n");
  } else if (cmd == ":cache") {
    ServiceStats stats = service_->stats();
    *out += StrCat("% queries ", stats.queries, ", updates ", stats.updates,
                   "\n% result cache: ", stats.result_cache_hits, " hits, ",
                   stats.result_cache_misses, " misses, ",
                   stats.result_cache_invalidations, " invalidations\n",
                   "% locks: ", stats.shared_evals, " shared evals, ",
                   stats.exclusive_evals, " exclusive evals\n",
                   "% overlays: ", stats.overlay_relations, " relations, ",
                   stats.overlay_bytes, " scratch bytes\n",
                   "% deadlines exceeded ", stats.deadline_exceeded,
                   ", cancelled ", stats.cancelled, "\n");
  } else if (cmd == ":metrics") {
    *out += service_->metrics()->RenderPrometheus();
  } else if (cmd == ":trace") {
    if (args == "on") {
      service_->set_tracing(true);
      *out += "% tracing on\n";
    } else if (args == "off") {
      service_->set_tracing(false);
      *out += "% tracing off\n";
    } else if (args == "last") {
      std::string json = service_->last_trace_json();
      if (json.empty()) {
        ++error_count_;
        *out += "% no trace recorded yet (:trace on, then run a query)\n";
      } else {
        *out += json;
        *out += "\n";
      }
    } else if (args.empty()) {
      *out += StrCat("% tracing ", service_->tracing() ? "on" : "off", "\n");
    } else {
      ++error_count_;
      *out += "usage: :trace on|off|last\n";
    }
  } else if (cmd == ":snapshot") {
    SnapshotWriteStats snap;
    Status status = service_->Checkpoint(&snap);
    if (!status.ok()) {
      ++error_count_;
      *out += StrCat("error: ", status.ToString(), "\n");
    } else {
      *out += StrCat("% snapshot at lsn ", snap.lsn, " (", snap.bytes,
                     " bytes) -> ", snap.path, "\n");
    }
  } else if (cmd == ":wal" && args == "json") {
    DurabilityStats d = service_->durability_stats();
    if (!d.enabled) {
      *out += "{\"enabled\":false}\n";
    } else {
      *out += StrCat(
          "{\"enabled\":true,\"data_dir\":\"", JsonEscape(d.data_dir),
          "\",\"sync\":\"", JsonEscape(WalSyncPolicyToString(d.sync)),
          "\",\"wal\":{\"records\":", d.wal_records,
          ",\"bytes\":", d.wal_bytes, ",\"syncs\":", d.wal_syncs,
          ",\"segments\":", d.wal_segments_created,
          ",\"last_lsn\":", d.last_lsn, "}",
          ",\"snapshots\":{\"written\":", d.snapshots_written,
          ",\"newest_lsn\":", d.snapshot_lsn,
          ",\"failures\":", d.checkpoint_failures, "}",
          ",\"recovery\":{\"cold_start\":",
          d.recovery_cold_start ? "true" : "false",
          ",\"torn_tail\":", d.recovery_torn_tail ? "true" : "false",
          ",\"replayed\":", d.replayed_records,
          ",\"skipped\":", d.skipped_records, "}}\n");
    }
  } else if (cmd == ":wal") {
    DurabilityStats dur = service_->durability_stats();
    if (!dur.enabled) {
      *out += "% durability off (start with --data-dir=DIR)\n";
    } else {
      *out += StrCat(
          "% wal ", dur.data_dir, " sync=", WalSyncPolicyToString(dur.sync),
          ": ", dur.wal_records, " records, ", dur.wal_bytes, " bytes, ",
          dur.wal_syncs, " fsyncs, ", dur.wal_segments_created,
          " segments, last lsn ", dur.last_lsn, "\n",
          "% snapshots: ", dur.snapshots_written, " written, newest lsn ",
          dur.snapshot_lsn, ", ", dur.checkpoint_failures, " failures",
          dur.last_checkpoint_error.empty()
              ? std::string()
              : StrCat(" (last: ", dur.last_checkpoint_error, ")"),
          "\n",
          "% recovery: ",
          dur.recovery_cold_start ? "cold start" : "recovered", ", ",
          dur.replayed_records, " replayed, ", dur.skipped_records,
          " skipped", dur.recovery_torn_tail ? ", torn tail dropped" : "",
          "\n");
    }
  } else if (cmd == ":net" && args == "json") {
    const NetCounters* net = options_.net;
    if (net == nullptr) {
      *out += "{\"enabled\":false}\n";
    } else {
      auto load = [](const std::atomic<int64_t>& v) {
        return v.load(std::memory_order_relaxed);
      };
      *out += StrCat(
          "{\"enabled\":true,\"mode\":\"", JsonEscape(net->mode),
          "\",\"workers\":", net->workers,
          ",\"queue\":{\"depth\":", load(net->queue_depth),
          ",\"capacity\":", net->queue_capacity,
          ",\"high_watermark\":", load(net->queue_high_watermark), "}",
          ",\"connections\":{\"active\":", load(net->active_connections),
          ",\"accepted\":", load(net->accepted), "}",
          ",\"requests\":{\"dispatched\":", load(net->dispatched),
          ",\"responses\":", load(net->responses),
          ",\"rejected_overload\":", load(net->rejected_overload),
          ",\"rejected_oversize\":", load(net->rejected_oversize), "}",
          ",\"bytes\":{\"in\":", load(net->bytes_in),
          ",\"out\":", load(net->bytes_out), "}}\n");
    }
  } else if (cmd == ":net") {
    const NetCounters* net = options_.net;
    if (net == nullptr) {
      *out += "% no network front end (REPL session)\n";
    } else {
      auto load = [](const std::atomic<int64_t>& v) {
        return v.load(std::memory_order_relaxed);
      };
      *out += StrCat(
          "% net mode ", net->mode, ": ", net->workers, " workers, queue ",
          load(net->queue_depth), "/", net->queue_capacity, " (high ",
          load(net->queue_high_watermark), ")\n",
          "% conns: ", load(net->active_connections), " active, ",
          load(net->accepted), " accepted\n",
          "% requests: ", load(net->dispatched), " dispatched, ",
          load(net->responses), " responses, ", load(net->rejected_overload),
          " rejected overloaded, ", load(net->rejected_oversize),
          " rejected oversize\n",
          "% bytes: ", load(net->bytes_in), " in, ", load(net->bytes_out),
          " out\n");
    }
  } else {
    ++error_count_;
    *out += StrCat("unknown command ", cmd, " — :help\n");
  }
  return true;
}

void Session::Finish(std::string* out) {
  if (options_.tcp_mode) *out += ".\n";
}

bool Session::HandleLine(const std::string& line, std::string* out) {
  if (pending_.empty() && !line.empty() && line[0] == ':') {
    bool keep_going = HandleCommand(line, out);
    Finish(out);
    return keep_going;
  }
  pending_ += line;
  pending_ += "\n";
  std::string trimmed = pending_;
  while (!trimmed.empty() &&
         std::isspace(static_cast<unsigned char>(trimmed.back()))) {
    trimmed.pop_back();
  }
  if (trimmed.empty()) {
    pending_.clear();
    return true;
  }
  if (trimmed.back() == '.') {
    std::string text = std::move(pending_);
    pending_.clear();
    Consume(text, out);
    Finish(out);
  }
  return true;
}

}  // namespace chainsplit
