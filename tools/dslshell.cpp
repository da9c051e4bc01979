// dslshell — interactive conceptual design over a design space layer.
//
// Usage:
//   dslshell [layer] [mode options]
//
// Layers:
//   crypto            the Section 5 cryptography layer (default)
//   crypto-tech       the technology-first coexisting hierarchy
//   media             the Figs. 2-4 IDCT layer
//   <file>            a layer in dslayer-format 1 (see dsl/serialize)
//
// Modes:
//   (none)            interactive shell over stdin; type `help`.
//   --batch [file]    concurrent exploration service, batch mode: reads
//                     `<session> <command>` protocol lines from the file
//                     (or stdin when omitted/"-"), executes them on a
//                     worker pool, prints responses in submission order.
//   --serve           same protocol from stdin, but responses stream in
//                     completion order as they finish.
//   --listen PORT     network mode: a non-blocking epoll TCP server on
//                     PORT (0 = kernel-assigned, printed on startup)
//                     speaking the same line protocol with pipelined
//                     requests per connection. Ctrl-C / SIGTERM stops
//                     it gracefully. See README "Network mode".
//
// Service options (with --batch/--serve):
//   --workers N       worker threads (default 2)
//   --queue N         request queue capacity / backpressure bound (256)
//   --max-sessions N  live session bound, LRU-evicted past it (64)
//   --latency-us X    injected per-request latency simulating a remote
//                     IP-provider catalog round trip (0)
//   --max-queue-wait-ms X
//                     overload shedding: requests that waited longer than
//                     X ms in the queue are answered
//                     rejected/overloaded with a retry-after hint
//                     instead of executing late (0 = off)
//   --degraded-after-ms X
//                     degraded read-only mode: a request waits at most
//                     X ms for the shared layer behind a stalled catalog
//                     writer, then fails fast as retryable
//                     rejected/unavailable (0 = wait forever)
//
// Network options (with --listen):
//   --max-connections N   accepts past N are refused with one rejection
//                         line (default 1024)
//   --conn-inflight N     pipelined requests per connection before the
//                         server stops reading it (default 32)
//   --idle-timeout-ms X   close connections idle for X ms — also the
//                         slowloris / half-open defense (0 = never)
//
// Durability options (any mode — see README "Durability"):
//   --data DIR        durable catalog: boot from DIR's snapshot + WAL
//                     replay, journal every catalog mutation, persist
//                     named sessions under DIR/sessions/. The `!snapshot`
//                     and `!restore` directives need this.
//   --wal-sync MODE   journal fsync discipline: always (default; nothing
//                     acknowledged is ever lost), interval (fsync per
//                     --wal-sync-bytes), off (OS cache; bulk loads)
//   --wal-sync-bytes N  interval-mode fsync threshold (default 1 MiB)
//   --import FILE     bulk-import a CSV corpus (DB4HLS-style; header
//                     columns name,class,library,bind:X,metric:Y,view:L)
//                     through the WAL when --data is set, then exit
//                     (combine with --batch/--serve/--listen to serve)
//   --import-batch N  rows per journal frame (default 4096)
//
// Observability options (any service mode — see README "Observability"):
//   --trace-sample N      end-to-end request tracing: 1-in-N requests
//                         keep sweep-level spans and land in the recent-
//                         traces rings (default 64; 1 = every request,
//                         0 = tracing off)
//   --trace-seed N        sampling-hash seed — same seed + same request
//                         order = same sampled set (deterministic tests)
//   --slow-request-ms X   slow-request flight recorder: requests slower
//                         than X ms dump their span breakdown to a
//                         bounded JSONL sink regardless of sampling
//                         (0 = off)
//   --flight-recorder F   also append flight records to file F
//   Scrape live state with the `!metrics` directive (Prometheus text
//   format) or watch it with tools/dsltop.
//
// Fault injection: set DSLAYER_FAILPOINTS="site=mode,..." (e.g.
// "service.session.migrate=error:1,dsl.candidates.sweep=delay:50") or use
// the `!failpoint <spec>` directive mid-stream. Site catalog and spec
// grammar: DESIGN.md §11, src/support/failpoint.hpp.
//
// The interactive mode also streams from a pipe, so single sessions can
// be scripted:
//   printf 'open Operator.Modular.Multiplier\nreq EffectiveOperandLength 768\n' | dslshell crypto

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "domains/crypto.hpp"
#include "domains/media.hpp"
#include "dsl/serialize.hpp"
#include "dsl/shell.hpp"
#include "net/server.hpp"
#include "service/batch_runner.hpp"
#include "storage/csv_import.hpp"
#include "storage/durable_catalog.hpp"
#include "storage/file_io.hpp"
#include "storage/session_store.hpp"
#include "support/trace.hpp"

using namespace dslayer;

namespace {

struct CliOptions {
  std::string layer = "crypto";
  enum class Mode { kInteractive, kBatch, kServe, kListen } mode = Mode::kInteractive;
  std::string batch_file = "-";
  service::SessionManager::Options sessions;
  service::RequestExecutor::Options executor;
  net::NetServer::Options net;
  trace::TracerConfig tracer;  ///< sample_every=64 default; see parse_cli
  std::string data_dir;        ///< --data: durable catalog + session journals
  storage::WalOptions wal;     ///< --wal-sync / --wal-sync-bytes
  std::string import_file;     ///< --import: bulk CSV corpus
  std::size_t import_batch = 4096;  ///< --import-batch: rows per journal frame
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [crypto|crypto-tech|media|<layer-file>]"
               " [--batch [file]|--serve|--listen PORT] [--workers N] [--queue N]"
               " [--max-sessions N] [--latency-us X]"
               " [--max-queue-wait-ms X] [--degraded-after-ms X]"
               " [--max-connections N] [--conn-inflight N] [--idle-timeout-ms X]"
               " [--trace-sample N] [--trace-seed N] [--slow-request-ms X]"
               " [--flight-recorder FILE]"
               " [--data DIR] [--wal-sync always|interval|off] [--wal-sync-bytes N]"
               " [--import FILE.csv] [--import-batch N]\n";
  return 2;
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  bool layer_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_number = [&](double& out) {
      if (i + 1 >= argc) return false;
      out = std::strtod(argv[++i], nullptr);
      return out > 0;
    };
    double n = 0;
    if (arg == "--batch") {
      options.mode = CliOptions::Mode::kBatch;
      if (i + 1 < argc && argv[i + 1][0] != '-') options.batch_file = argv[++i];
    } else if (arg == "--serve") {
      options.mode = CliOptions::Mode::kServe;
    } else if (arg == "--listen") {
      // Port 0 is meaningful (kernel-assigned), so this one bypasses the
      // positive-number helper.
      if (i + 1 >= argc) return false;
      options.mode = CliOptions::Mode::kListen;
      options.net.port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--max-connections") {
      if (!next_number(n)) return false;
      options.net.max_connections = static_cast<std::size_t>(n);
    } else if (arg == "--conn-inflight") {
      if (!next_number(n)) return false;
      options.net.conn_inflight_cap = static_cast<std::size_t>(n);
    } else if (arg == "--idle-timeout-ms") {
      if (!next_number(n)) return false;
      options.net.idle_timeout_ms = n;
    } else if (arg == "--workers") {
      if (!next_number(n)) return false;
      options.executor.workers = static_cast<std::size_t>(n);
    } else if (arg == "--queue") {
      if (!next_number(n)) return false;
      options.executor.queue_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--max-sessions") {
      if (!next_number(n)) return false;
      options.sessions.max_sessions = static_cast<std::size_t>(n);
    } else if (arg == "--latency-us") {
      if (!next_number(n)) return false;
      options.executor.injected_latency_us = n;
    } else if (arg == "--max-queue-wait-ms") {
      if (!next_number(n)) return false;
      options.executor.max_queue_wait_ms = n;
    } else if (arg == "--degraded-after-ms") {
      if (!next_number(n)) return false;
      options.sessions.degraded_after_ms = n;
    } else if (arg == "--trace-sample") {
      // 0 is meaningful (tracing off), so bypass the positive-number
      // helper.
      if (i + 1 >= argc) return false;
      options.tracer.sample_every = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--trace-seed") {
      if (i + 1 >= argc) return false;
      options.tracer.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--slow-request-ms") {
      if (!next_number(n)) return false;
      options.tracer.slow_request_ms = n;
    } else if (arg == "--flight-recorder") {
      if (i + 1 >= argc) return false;
      options.tracer.flight_path = argv[++i];
    } else if (arg == "--data") {
      if (i + 1 >= argc) return false;
      options.data_dir = argv[++i];
    } else if (arg == "--wal-sync" || arg.rfind("--wal-sync=", 0) == 0) {
      std::string mode;
      if (arg == "--wal-sync") {
        if (i + 1 >= argc) return false;
        mode = argv[++i];
      } else {
        mode = arg.substr(std::string("--wal-sync=").size());
      }
      try {
        options.wal.sync = storage::parse_sync_mode(mode);
      } catch (const Error& e) {
        std::cerr << e.what() << "\n";
        return false;
      }
    } else if (arg == "--wal-sync-bytes") {
      if (!next_number(n)) return false;
      options.wal.sync_interval_bytes = static_cast<std::uint64_t>(n);
    } else if (arg == "--import") {
      if (i + 1 >= argc) return false;
      options.import_file = argv[++i];
    } else if (arg == "--import-batch") {
      if (!next_number(n)) return false;
      options.import_batch = static_cast<std::size_t>(n);
    } else if (!layer_set && !arg.empty() && arg[0] != '-') {
      options.layer = arg;
      layer_set = true;
    } else {
      return false;
    }
  }
  return true;
}

std::unique_ptr<dsl::DesignSpaceLayer> load_layer(const std::string& which) {
  if (which == "crypto") return domains::build_crypto_layer();
  if (which == "crypto-tech") {
    domains::CryptoLayerOptions options;
    options.hierarchy = domains::OmmHierarchy::kTechnologyFirst;
    return domains::build_crypto_layer(options);
  }
  if (which == "media") return domains::build_media_layer();
  std::ifstream file(which);
  if (!file) throw Error("cannot open layer file '" + which + "'");
  std::ostringstream text;
  text << file.rdbuf();
  dsl::ImportResult imported = dsl::import_layer(text.str());
  for (const auto& warning : imported.warnings) std::cerr << "warning: " << warning << "\n";
  return std::move(imported.layer);
}

volatile std::sig_atomic_t g_stop_requested = 0;

void request_stop(int) { g_stop_requested = 1; }

int run_listen(const dsl::DesignSpaceLayer& layer, service::SessionManager& manager,
               service::RequestExecutor& executor, const CliOptions& options,
               storage::DurableCatalog* durable) {
  net::NetServer server({&manager, &executor, {}, durable}, options.net);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "cannot listen on port " << options.net.port << ": " << error << "\n";
    return 2;
  }
  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_stop);
  std::cout << "dslayer service listening on port " << server.port() << " (layer '"
            << layer.name() << "', " << options.executor.workers << " workers)\n"
            << std::flush;
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const auto stats = server.stats();
  server.stop();
  executor.shutdown();
  std::cout << "net: accepted=" << stats.accepted << " closed=" << stats.closed
            << " requests=" << stats.requests << " responses=" << stats.responses
            << " invalid=" << stats.invalid_lines << " idle_closed=" << stats.idle_closed
            << " faulted=" << stats.faulted << "\n";
  return 0;
}

int run_service(dsl::DesignSpaceLayer& layer, const CliOptions& options,
                storage::DurableCatalog* durable) {
  // Every service front end traces through the process-global tracer;
  // the default config (sample 1-in-64, no flight recorder) keeps the
  // cold hot path at one relaxed load per request.
  trace::Tracer::instance().configure(options.tracer);
  // A snapshot boot restored the index (and its mmap-aliased filter
  // tables) already — re-indexing here would discard it and pay the full
  // re-derivation the snapshot exists to skip.
  const auto reindex = durable != nullptr && durable->boot_report().loaded_snapshot
                           ? service::SharedLayer::Reindex::kPreserve
                           : service::SharedLayer::Reindex::kFull;
  service::SharedLayer shared(layer, reindex);
  service::SessionManager manager(shared, options.sessions);
  service::RequestExecutor executor(manager, options.executor);
  if (options.mode == CliOptions::Mode::kListen) {
    return run_listen(layer, manager, executor, options, durable);
  }

  service::BatchSummary summary;
  if (options.mode == CliOptions::Mode::kServe) {
    summary = service::run_serve(manager, executor, std::cin, std::cout, durable);
  } else if (options.batch_file == "-") {
    summary = service::run_batch(manager, executor, std::cin, std::cout, durable);
  } else {
    std::ifstream file(options.batch_file);
    if (!file) {
      std::cerr << "cannot open batch file '" << options.batch_file << "'\n";
      return 2;
    }
    summary = service::run_batch(manager, executor, file, std::cout, durable);
  }
  executor.shutdown();
  return summary.errors == 0 && summary.rejected == 0 && summary.deadline_expired == 0 ? 0 : 1;
}

/// Bulk-imports a CSV corpus. With a durable catalog every batch goes
/// through the WAL (apply + journal + fsync per --wal-sync) so a crash
/// mid-import recovers exactly the acknowledged batches; without one the
/// records apply in memory only.
int run_import(dsl::DesignSpaceLayer& layer, const CliOptions& options,
               storage::DurableCatalog* durable) {
  try {
    const std::string csv = storage::read_file(options.import_file);
    const auto emit = [&](storage::CatalogRecord record) {
      if (durable != nullptr) {
        durable->apply_and_log(record);
      } else {
        storage::apply_record(layer, record);
      }
    };
    const storage::CsvImportResult result =
        storage::import_csv(csv, "imported", options.import_batch, emit);
    emit(storage::CatalogRecord::index_cores());
    for (const auto& warning : result.warnings) std::cerr << "warning: " << warning << "\n";
    std::cerr << "imported " << result.rows << " cores in " << result.batches
              << " batches from '" << options.import_file << "'\n";
    return 0;
  } catch (const Error& e) {
    std::cerr << "import failed: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_cli(argc, argv, options)) return usage(argv[0]);

  std::unique_ptr<dsl::DesignSpaceLayer> layer;
  try {
    layer = load_layer(options.layer);
  } catch (const Error& e) {
    std::cerr << "failed to load layer: " << e.what() << "\n";
    return 2;
  }

  // Durable catalog: boot (snapshot + journal replay) before any front
  // end sees the layer, and persist named sessions under the same dir.
  std::unique_ptr<storage::DurableCatalog> durable;
  std::unique_ptr<storage::SessionStore> session_store;
  if (!options.data_dir.empty()) {
    try {
      storage::DurableOptions durable_options;
      durable_options.dir = options.data_dir;
      durable_options.wal = options.wal;
      durable = std::make_unique<storage::DurableCatalog>(*layer, durable_options);
      session_store = std::make_unique<storage::SessionStore>(durable->sessions_dir());
      options.sessions.store = session_store.get();
      const storage::BootReport& boot = durable->boot_report();
      if (boot.loaded_snapshot || boot.replayed_records > 0 || boot.truncated_bytes > 0) {
        std::cerr << "durable catalog '" << options.data_dir
                  << "': snapshot=" << (boot.loaded_snapshot ? "yes" : "no")
                  << " snapshot_cores=" << boot.snapshot.cores
                  << " replayed=" << boot.replayed_records
                  << " skipped=" << boot.skipped_records
                  << " torn_bytes=" << boot.truncated_bytes << "\n";
      }
    } catch (const Error& e) {
      std::cerr << "failed to open durable catalog '" << options.data_dir << "': " << e.what()
                << "\n";
      return 2;
    }
  }

  if (!options.import_file.empty()) {
    const int rc = run_import(*layer, options, durable.get());
    if (rc != 0) return rc;
    // A bare `--import` is a bulk-load invocation: import, then exit
    // instead of falling through to an interactive shell blocked on
    // stdin. Combine with --batch/--serve/--listen to keep serving.
    if (options.mode == CliOptions::Mode::kInteractive) return 0;
  }

  if (options.mode != CliOptions::Mode::kInteractive) {
    return run_service(*layer, options, durable.get());
  }

  std::cout << "dslayer shell — layer '" << layer->name() << "' (" << layer->space().all().size()
            << " CDOs). Type 'help'.\n";
  const int failures = dsl::run_shell(*layer, std::cin, std::cout);
  return failures == 0 ? 0 : 1;
}
