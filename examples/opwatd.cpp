// opwatd: the portal daemon — serves a catalog of peering inference
// snapshots over the portal binary protocol (plus the HTTP/JSON debug
// surface) until SIGINT/SIGTERM, then drains in-flight requests and
// exits cleanly.  This is the process the CI load-smoke lane boots
// against catalog_tiny.opwatc and the piece a deployment would run.
//
//   $ ./opwatd --gen small --port 9417            # synthetic catalog
//   $ ./opwatd --load catalog.opwatc --port 9417  # serve a snapshot
//   $ ./opwatd --gen small --save catalog.opwatc  # generate + persist
//   $ curl http://127.0.0.1:9417/stats            # HTTP debug surface
//
// Prints "opwatd listening on ADDR:PORT" once ready (stdout, flushed) —
// scripts wait for that line.  On SIGINT/SIGTERM it stops accepting,
// drains every admitted request, joins all threads and prints the final
// counter snapshot.  On SIGHUP it reloads --load FILE and publishes the
// fresh snapshot atomically; if the reload fails for ANY reason the
// previous snapshot stays up and the failure is only counted
// (reload_failures in /stats) — a corrupt file on disk must never take
// down a serving portal.
//
// Exit codes are distinct per failure class so supervisors can react
// (restart vs page vs fix the config): 0 clean, 2 usage, 3 the catalog
// could not be loaded/generated, 4 the listen socket could not be
// bound.
#include <charconv>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <thread>

#include "opwat/eval/scenario.hpp"
#include "opwat/portal/server.hpp"
#include "opwat/serve/shared_catalog.hpp"
#include "opwat/serve/store.hpp"
#include "opwat/util/failpoint.hpp"

namespace {

constexpr int k_exit_usage = 2;
constexpr int k_exit_load = 3;
constexpr int k_exit_bind = 4;

/// Upper bound on --workers: each worker is one OS thread.
constexpr std::uint64_t k_max_workers = 256;

// Written by the signal handlers, polled by the main loop.
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;

extern "C" void on_signal(int) { g_stop = 1; }
extern "C" void on_reload(int) { g_reload = 1; }

void usage(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0
     << " [--load FILE [--recover]] [--gen small|paper] [--save FILE]\n"
        "       [--addr A] [--port N] [--workers N] [--seed N] [--epochs N]\n"
        "       [--help]\n"
        "\n"
        "  --load FILE    serve the epochs of a .opwatc snapshot\n"
        "  --recover      with --load: salvage a damaged snapshot instead\n"
        "                 of refusing it — serve the longest valid epoch\n"
        "                 prefix and report as degraded in /healthz\n"
        "  --gen S        build a synthetic catalog instead: scenario\n"
        "                 scale small (default) or paper\n"
        "  --save FILE    after --gen, persist the catalog as .opwatc\n"
        "  --addr A       bind address (default 127.0.0.1)\n"
        "  --port N       bind port, 0-65535 (default 9417; 0 = ephemeral)\n"
        "  --workers N    query worker threads, 1-256 (default 2)\n"
        "  --seed N       --gen scenario seed (default 42)\n"
        "  --epochs N     --gen epoch count, at least 1 (default 1;\n"
        "                 consecutive months from 2018-04, distinct seeds)\n"
        "\n"
        "N is a whole decimal number; anything else, or a value out of\n"
        "range, is a usage error (exit 2).\n"
        "  --help         this text\n"
        "\n"
        "signals: SIGINT/SIGTERM drain and exit; SIGHUP reloads --load\n"
        "FILE (keeping the current snapshot if the reload fails).\n"
        "\n"
        "environment:\n"
        "  OPWAT_FAILPOINTS       deterministic fault injection spec,\n"
        "                         \"site=policy:action[:arg];...\" — e.g.\n"
        "                         \"net-send=one-in-10:error;store-read=\"\n"
        "                         \"2-times:error\".  Sites are listed in\n"
        "                         opwat/util/failpoint_sites.hpp.\n"
        "  OPWAT_FAILPOINTS_SEED  seed for one-in-N decision streams\n"
        "\n"
        "exit codes: 0 clean, 2 usage, 3 catalog load/generate failed,\n"
        "4 bind failed\n";
}

/// Parses a numeric flag value: the whole of `text` must be a decimal
/// number in [lo, hi].  Anything else (a sign, trailing junk, an empty
/// string, an out-of-range value) exits with k_exit_usage.
std::uint64_t parse_number(const char* argv0, std::string_view flag,
                           std::string_view text, std::uint64_t lo,
                           std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
    std::cerr << argv0 << ": " << flag << " wants a whole number in [" << lo
              << ", " << hi << "], got '" << text << "'\n";
    std::exit(k_exit_usage);
  }
  return v;
}

/// Month label for --gen --epochs: 2018-04, 2018-05, ... rolling into
/// later years past December.
std::string epoch_label(std::size_t i) {
  const std::size_t month0 = 3 + i;  // 0-based April + i
  const std::size_t year = 2018 + month0 / 12;
  const std::size_t month = month0 % 12 + 1;
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04zu-%02zu", year, month);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opwat;

  std::string load_path;
  std::string save_path;
  std::string gen_scale = "small";
  bool gen = false;
  bool recover = false;
  portal::server_config cfg;
  cfg.port = 9417;
  std::uint64_t seed = 42;
  std::size_t epochs = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(std::cerr, argv[0]);
        std::exit(k_exit_usage);
      }
      return argv[++i];
    };
    if (arg == "--load") {
      load_path = next();
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--gen") {
      gen = true;
      gen_scale = next();
    } else if (arg == "--save") {
      save_path = next();
    } else if (arg == "--addr") {
      cfg.bind_addr = next();
    } else if (arg == "--port") {
      cfg.port = static_cast<std::uint16_t>(parse_number(
          argv[0], arg, next(), 0, std::numeric_limits<std::uint16_t>::max()));
    } else if (arg == "--workers") {
      cfg.workers = static_cast<std::size_t>(
          parse_number(argv[0], arg, next(), 1, k_max_workers));
    } else if (arg == "--seed") {
      seed = parse_number(argv[0], arg, next(), 0,
                          std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--epochs") {
      epochs = static_cast<std::size_t>(parse_number(
          argv[0], arg, next(), 1, std::numeric_limits<std::size_t>::max()));
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout, argv[0]);
      return 0;
    } else {
      usage(std::cerr, argv[0]);
      return k_exit_usage;
    }
  }
  if (load_path.empty() && !gen) gen = true;  // default: synthetic small
  if (!load_path.empty() && gen) {
    std::cerr << argv[0] << ": --load and --gen are exclusive\n";
    return k_exit_usage;
  }
  if (recover && load_path.empty()) {
    std::cerr << argv[0] << ": --recover needs --load\n";
    return k_exit_usage;
  }
  if (gen && gen_scale != "small" && gen_scale != "paper") {
    usage(std::cerr, argv[0]);
    return k_exit_usage;
  }

  try {
    util::failpoint_registry::instance().configure_from_env();
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": OPWAT_FAILPOINTS: " << e.what() << "\n";
    return k_exit_usage;
  }

  const serve::recovery_policy policy = recover
                                            ? serve::recovery_policy::recover
                                            : serve::recovery_policy::strict;
  serve::shared_catalog cat;
  portal::health_status health;
  try {
    if (!load_path.empty()) {
      const auto report = cat.load(load_path, policy);
      if (report.recovered) {
        health.degraded = true;
        health.quarantined_epochs = report.epochs_dropped;
        health.bytes_truncated = report.bytes_truncated;
        std::cerr << argv[0] << ": recovered " << load_path << ": "
                  << report.detail << "\n";
      }
      if (cat.snapshot()->epoch_count() == 0) {
        std::cerr << argv[0] << ": " << load_path << " holds no epochs\n";
        return k_exit_load;
      }
    } else {
      for (std::size_t e = 0; e < epochs; ++e) {
        eval::scenario_config scfg;
        if (gen_scale == "small") {
          scfg = eval::small_scenario_config(seed + e);
        } else {
          scfg = eval::default_scenario_config();
          scfg.world.seed = seed + e;
        }
        const auto scenario = eval::scenario::build(scfg);
        const auto result = scenario.run_inference();
        cat.ingest(scenario.w, scenario.view, result, epoch_label(e));
      }
      if (!save_path.empty()) cat.save(save_path);
    }
  } catch (const serve::store_error& e) {
    // The typed errc goes to stderr so a supervisor can tell bit rot
    // (checksum_mismatch) from a missing file (io) without parsing
    // prose.
    std::cerr << argv[0] << ": store_errc::" << serve::to_string(e.kind())
              << ": " << e.what() << "\n";
    return k_exit_load;
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return k_exit_load;
  }

  portal::server srv{cat, cfg};
  srv.set_health(health);
  try {
    srv.start();
  } catch (const net::socket_error& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return k_exit_bind;
  }

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  struct sigaction hup {};
  hup.sa_handler = on_reload;
  ::sigemptyset(&hup.sa_mask);
  ::sigaction(SIGHUP, &hup, nullptr);

  {
    const auto snap = cat.snapshot();
    std::cout << "opwatd serving " << snap->epoch_count() << " epoch(s), "
              << cfg.workers << " worker(s)\n";
  }
  std::cout << "opwatd listening on " << cfg.bind_addr << ":" << srv.port()
            << std::endl;  // flushed: readiness line scripts wait for

  while (!g_stop) {
    if (g_reload) {
      g_reload = 0;
      if (load_path.empty()) {
        std::cout << "opwatd: SIGHUP ignored (no --load file to reload)\n";
      } else {
        try {
          const auto report = cat.load(load_path, policy);
          health.degraded = report.recovered;
          health.quarantined_epochs = report.epochs_dropped;
          health.bytes_truncated = report.bytes_truncated;
          srv.set_health(health);
          std::cout << "opwatd: reloaded " << load_path << " ("
                    << cat.snapshot()->epoch_count() << " epoch(s)"
                    << (report.recovered ? ", recovered" : "") << ")"
                    << std::endl;
        } catch (const std::exception& e) {
          // The previous snapshot is still published — serving continues
          // undisturbed on the last good catalog.
          ++health.reload_failures;
          srv.set_health(health);
          std::cout << "opwatd: reload failed, keeping current snapshot: "
                    << e.what() << std::endl;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
  }

  std::cout << "opwatd: signal received, draining\n";
  srv.stop();  // graceful: every admitted request gets its response

  const auto s = srv.stats();
  std::cout << "opwatd: served ok=" << s.responses_ok
            << " error=" << s.responses_error
            << " shed=" << (s.shed_queue_full + s.shed_pipeline)
            << " protocol_errors=" << s.protocol_errors
            << " cache_hits=" << s.cache_hits << "/"
            << (s.cache_hits + s.cache_misses)
            << " connections=" << s.connections_accepted << "\n";
  return 0;
}
