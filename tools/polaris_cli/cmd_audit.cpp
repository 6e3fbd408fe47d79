// `polaris_cli audit`: the `leak_estimate(D)` primitive as a flow step - a
// per-design TVLA report, human table or machine-readable JSON. Also the CI
// round-trip check: auditing a .v file re-parses whatever `mask` emitted.
//
// `--design` accepts a comma-separated list; multiple designs audit
// concurrently - every campaign's shards drain through the global
// engine::Scheduler as one work queue (core::audit_designs), so a big
// design's tail is filled by the small ones' shards. Reports are identical
// to auditing each design alone. Output goes through the renderers shared
// with `polaris_cli client audit`, so a served audit prints byte-identically.
#include <cstdio>

#include "cli.hpp"
#include "server/remote.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"
#include "util/strings.hpp"

namespace polaris::cli {

int cmd_audit(std::span<const char* const> args) {
  std::vector<FlagSpec> specs = config_flag_specs();
  specs.push_back({"design", true,
                   "suite name(s) or Verilog file(s), comma-separated "
                   "(required; several audit concurrently)"});
  specs.push_back({"scale", true, "suite design-size scale in (0,1] (default 1.0)"});
  specs.push_back({"top", true, "list the N leakiest gates (default 10)"});
  specs.push_back({"json", false, "emit a JSON object (array when several designs)"});
  specs.push_back({"workers", true,
                   "comma-separated shard-worker endpoints (host:port or "
                   "tcp:host:port); shards distribute across them plus "
                   "local lanes, output stays byte-identical"});
  specs.push_back(trace_flag_spec());
  specs.push_back({"help", false, "show this help"});
  const ParsedFlags flags(args, specs);
  if (flags.has("help")) {
    std::printf("usage: polaris_cli audit --design <name|file.v>[,...] "
                "[flags]\n\n%s",
                render_flag_help(specs).c_str());
    return 0;
  }
  const TraceGuard trace(flags.get("trace"), "audit");

  const auto config = config_from_flags(flags);
  const double scale = flags.get_double("scale", 1.0);
  std::vector<circuits::Design> designs;
  for (const auto& name : util::split(flags.require("design"), ",")) {
    // trim: "--design 'des3, square'" is natural shell quoting.
    const auto trimmed = util::trim(name);
    if (trimmed.empty()) continue;
    designs.push_back(circuits::load_design(std::string(trimmed), scale));
  }
  if (designs.empty()) throw UsageError("flag '--design' names no designs");

  const auto lib = techlib::TechLibrary::default_library();
  std::vector<tvla::LeakageReport> reports;
  const std::string workers = flags.get("workers", "");
  if (workers.empty()) {
    reports = core::audit_designs(designs, lib, config);
  } else {
    // Distributed path: same shards, same ascending merge, byte-identical
    // reports - the pool is a drop-in for core::audit_designs. The fleet
    // summary goes to stderr so --json stdout stays machine-parseable.
    server::WorkerPoolOptions pool_options;
    pool_options.workers = workers;
    pool_options.local_threads = config.threads;
    server::WorkerPool pool(pool_options);
    reports = pool.audit(designs, lib, config);
    const auto totals = pool.totals();
    std::fprintf(stderr,
                 "polaris audit: distributed over %zu workers "
                 "(shards_out=%llu, moments_in=%llu, bytes=%llu, "
                 "bytes_out=%llu, resends=%llu)\n",
                 pool.worker_count(),
                 static_cast<unsigned long long>(totals.shards_out),
                 static_cast<unsigned long long>(totals.moments_in),
                 static_cast<unsigned long long>(totals.bytes),
                 static_cast<unsigned long long>(totals.bytes_out),
                 static_cast<unsigned long long>(totals.resends));
  }
  const std::size_t top = flags.get_size("top", 10);

  // With --budget the traces column reports what the campaign actually
  // consumed; the fixed-budget path prints the configured count, exactly
  // as before.
  const auto traces_of = [&](const tvla::LeakageReport& report) {
    return config.tvla.budget.enabled ? report.traces_used()
                                      : config.tvla.traces;
  };

  if (flags.has("json")) {
    // One object for a single design (the stable CI format); an array when
    // several were audited together.
    if (designs.size() > 1) std::printf("[");
    for (std::size_t i = 0; i < designs.size(); ++i) {
      if (i > 0) std::printf(",");
      std::fputs(render_audit_json(designs[i].name,
                                   designs[i].netlist.gate_count(), reports[i],
                                   traces_of(reports[i]), top)
                     .c_str(),
                 stdout);
    }
    if (designs.size() > 1) std::printf("]");
    std::printf("\n");
    return 0;
  }

  for (std::size_t i = 0; i < designs.size(); ++i) {
    if (i > 0) std::printf("\n");
    std::fputs(render_audit_table(designs[i].name,
                                  designs[i].netlist.gate_count(), reports[i],
                                  traces_of(reports[i]), top)
                   .c_str(),
               stdout);
  }
  return 0;
}

}  // namespace polaris::cli
