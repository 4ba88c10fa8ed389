// Portal snapshot export: the paper's remote-IXP-peering portal publishes
// monthly inference snapshots; this example runs the pipeline, ingests
// the result as one epoch of a serve::catalog, and renders that epoch as
// the equivalent JSON document on stdout (pipe to a file or `jq`).
//
// With --save/--load the catalog round-trips through the durable .opwatc
// snapshot format (opwat/serve/store.hpp), so an export can replay a
// stored snapshot instead of recomputing the pipeline:
//
//   $ ./portal_export > snapshot.json
//   $ ./portal_export --summary                  # totals only, no member lists
//   $ ./portal_export --scale paper --seed 7     # full-size scenario, seed 7
//   $ ./portal_export --label 2018-05            # epoch/snapshot label
//   $ ./portal_export --save portal.opwatc       # persist the catalog too
//   $ ./portal_export --load portal.opwatc       # render from a stored catalog
//   $ ./portal_export --load portal.opwatc --label 2018-05   # pick an epoch
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "opwat/eval/portal.hpp"
#include "opwat/eval/scenario.hpp"
#include "opwat/serve/store.hpp"

namespace {

void usage(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0
     << " [--summary] [--scale small|paper] [--seed N] [--label S]\n"
        "       [--save FILE] [--load FILE] [--help]\n"
        "\n"
        "  --summary      totals only: omit per-member and facility lists\n"
        "  --scale S      scenario size: small (default) or paper\n"
        "  --seed N       world/pipeline seed (default 42)\n"
        "  --label S      epoch label to ingest or render (default 2018-04;\n"
        "                 with --load, defaults to the file's latest epoch)\n"
        "  --save FILE    after ingesting, save the catalog as a versioned\n"
        "                 .opwatc snapshot (checksummed columnar format)\n"
        "  --load FILE    skip the pipeline: load the catalog from FILE and\n"
        "                 render the chosen epoch from it\n"
        "  --help         this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opwat;

  bool summary_only = false;
  std::string scale = "small";
  std::uint64_t seed = 42;
  std::string label = "2018-04";  // the paper's measurement month
  bool label_given = false;
  std::string save_path;
  std::string load_path;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(std::cerr, argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--summary") {
      summary_only = true;
    } else if (arg == "--scale") {
      scale = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--label") {
      label = next();
      label_given = true;
    } else if (arg == "--save") {
      save_path = next();
    } else if (arg == "--load") {
      load_path = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout, argv[0]);
      return 0;
    } else {
      usage(std::cerr, argv[0]);
      return 2;
    }
  }

  if (scale != "small" && scale != "paper") {
    usage(std::cerr, argv[0]);
    return 2;
  }

  serve::catalog cat;
  try {
    if (!load_path.empty()) {
      cat = serve::catalog::load(load_path);
      if (cat.epoch_count() == 0) {
        std::cerr << argv[0] << ": " << load_path << " holds no epochs\n";
        return 1;
      }
      if (!label_given) label = cat.labels().back();
    } else {
      eval::scenario_config cfg;
      if (scale == "small") {
        cfg = eval::small_scenario_config(seed);
      } else {
        cfg = eval::default_scenario_config();
        cfg.world.seed = seed;
      }
      const auto scenario = eval::scenario::build(cfg);
      const auto result = scenario.run_inference();
      cat.ingest(scenario.w, scenario.view, result, label);
    }

    if (!save_path.empty()) cat.save(save_path);

    eval::portal_options opt;
    if (summary_only) {
      opt.include_interfaces = false;
      opt.include_facilities = false;
    }
    std::cout << eval::portal_snapshot_json(cat, label, opt) << "\n";
  } catch (const serve::store_error& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
