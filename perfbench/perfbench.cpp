// Repository benchmark harness (perfbench/README.md): host-time throughput
// of sequential (workload x protocol) simulation sweeps on the default
// Table III chip, with the phase split of every run, per-layer
// attribution from one self-profiled run per pair, and a check of the
// simulated results.
//
//   eecc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --reference FILE --out-dir DIR
//   eecc_perfbench --workload NAME --seed N --record
//
// One repetition runs every protocol of the workload once, each from
// scratch, calling the layers in the order runExperiment uses and timing
// each call: Workload construction, CmpSystem construction, warmup(),
// attach, run(), snapshot/export (+ report on dico-mixcom-report).
// Repetitions repeat until --seconds have passed (at least kMinReps);
// every timing is reported as the median over repetitions. The
// end-to-end times are rescaled by L2 latency probes timed between the
// protocols' runs (see hostScale and perfbench/README.md, "Steadiness");
// the raw host times are reported too. With --trace 1
// each pair then gets one extra runExperiment() call with the
// self-profiler on, which supplies the in-window per-layer self-times.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1. The lines before it print every metric with
// its unit, median, quartiles and sample count.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_parse.h"
#include "core/cmp_system.h"
#include "core/experiment.h"
#include "obs/exporters.h"
#include "obs/ledger.h"
#include "obs/report.h"
#include "obs/stage.h"
#include "obs/system_metrics.h"
#include "protocols/protocol.h"
#include "workload/profile.h"
#include "workload/workload.h"

namespace eecc {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Simulated window of every run: eecc_sim's defaults (500k warmup, 250k
// measured) scaled by 0.3, keeping the 2:1 warmup:window ratio so warmup
// stays about two thirds of a run's host time, as it is for users.
constexpr Tick kWarmupCycles = 150'000;
constexpr Tick kWindowCycles = 75'000;
// Workload::next draws timed outside the simulator per repetition.
constexpr std::uint64_t kGenDraws = 1'000'000;
constexpr int kMinReps = 3;
// Reference L2 load-to-use latency of the end-to-end times: a repetition's
// host seconds are multiplied by (kRefL2LoadNs / its probes' ns per load)
// ^ kL2Elasticity. The exponent is the measured log-log slope of the
// simulator's host time against the probe (README, "Steadiness").
constexpr double kRefL2LoadNs = 7.5;
constexpr double kL2Elasticity = 1.5;

struct BenchWorkload {
  const char* name;
  const char* mix;  ///< Table IV workload name.
  std::vector<ProtocolKind> protocols;
  /// Attach the paper-figure outputs (ledger + stage recorder) and build
  /// the report tables after each repetition.
  bool report;
};

const std::vector<BenchWorkload>& benchWorkloads() {
  static const std::vector<BenchWorkload> kAll = {
      {"snoop-apache",
       "apache4x16p",
       {ProtocolKind::Mesi, ProtocolKind::Moesi, ProtocolKind::Dragon,
        ProtocolKind::Adapt},
       false},
      {"dico-mixcom-report",
       "mixed-com",
       {ProtocolKind::Directory, ProtocolKind::DiCo,
        ProtocolKind::DiCoProviders, ProtocolKind::DiCoArin},
       true},
      {"sci-hitpath",
       "mixed-sci",
       {ProtocolKind::Directory, ProtocolKind::DiCoProviders,
        ProtocolKind::Mesi},
       false},
  };
  return kAll;
}

/// "MESI-Snoop" -> "mesi-snoop" (metric-name and reference-file key).
std::string slug(ProtocolKind kind) {
  std::string s = protocolName(kind);
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// --- Result digest -------------------------------------------------------

/// FNV-1a over the simulated results a host-speed change must not move:
/// ops, cycles, miss counts by class, NoC messages/flits/broadcasts and
/// every energy-event counter. Kernel event counts are left out on
/// purpose (batching legitimately changes them).
std::uint64_t resultDigest(std::uint64_t ops, Tick cycles,
                           const ProtocolStats& stats, const NocStats& noc,
                           const CacheEnergyEvents& events) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(ops);
  mix(cycles);
  for (const std::uint64_t n : stats.missByClass) mix(n);
  mix(noc.messages);
  mix(noc.linkFlits);
  mix(noc.broadcasts);
  for (const EnergyEventField& f : energyEventFields()) mix(events.*f.field);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Reference digests: "<workload> <protocol-slug> <seed> <digest>" lines.
std::map<std::string, std::string> loadReference(const std::string& path) {
  std::map<std::string, std::string> ref;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string wl, proto, seed, digest;
    if (!(fields >> wl >> proto >> seed >> digest))
      throw std::runtime_error("malformed reference line: " + line);
    ref[wl + " " + proto + " " + seed] = digest;
  }
  return ref;
}

// --- Host L2 probe ---------------------------------------------------------

/// Nanoseconds per load of a dependent pointer chase over 1 MiB, half the
/// 2 MiB per-core L2 of the Xeon host the benchmark was tuned on: the
/// core's L2 latency at this moment. Co-tenants
/// on the same physical core or cache stretch it, and the simulator,
/// whose hot arrays live in L1/L2, slows with it (README, "Steadiness").
double l2ProbeNs() {
  static const std::vector<std::uint32_t> chain = [] {
    // Sattolo's shuffle: one cycle through every slot, in random order.
    std::vector<std::uint32_t> next((1u << 20) / sizeof(std::uint32_t));
    for (std::size_t i = 0; i < next.size(); ++i)
      next[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 88172645463325252ull;
    for (std::size_t i = next.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next[i], next[x % i]);
    }
    return next;
  }();
  constexpr std::uint64_t kLoads = 333'333;
  std::uint32_t j = 0;
  // One lap brings the chain back into L2 after the simulator evicted it.
  for (std::size_t i = 0; i < chain.size(); ++i) j = chain[j];
  // Median of three chases, so one interruption cannot skew the reading.
  std::vector<double> ns;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kLoads; ++i) j = chain[j];
    ns.push_back(secondsSince(t0) * 1e9 / static_cast<double>(kLoads));
  }
  // Keep the chase observable so it cannot be elided.
  volatile std::uint32_t sink = j;
  (void)sink;
  std::sort(ns.begin(), ns.end());
  return ns[1];
}

// --- Exact decomposition identities (dico-mixcom-report) ----------------

/// Ledger rows sum to the chip counters; stage sums reconcile with the
/// miss-latency accumulators. Returns an empty string when both hold.
std::string checkIdentities(const AttributionLedger& l,
                            const StageRecorder& rec,
                            const ProtocolStats& stats, const NocStats& noc,
                            const CacheEnergyEvents& events) {
  constexpr auto kClasses = static_cast<std::size_t>(MissClass::kCount);
  for (std::size_t c = 0; c < kClasses; ++c) {
    std::uint64_t sum = 0;
    for (std::size_t row = 0; row < l.rows(); ++row)
      for (std::size_t a = 0; a < l.numAreas(); ++a)
        sum += l.missCount(row, a, static_cast<MissClass>(c));
    if (sum != stats.missByClass[c]) return "ledger miss rows != chip";
  }
  AttributionLedger::NetCell net;
  CacheEnergyEvents energy;
  for (std::size_t row = 0; row < l.rows(); ++row)
    for (std::size_t a = 0; a < l.numAreas(); ++a) {
      const AttributionLedger::NetCell& n = l.net(row, a);
      net.messages += n.messages;
      net.broadcasts += n.broadcasts;
      net.flits += n.flits;
      for (const EnergyEventField& f : energyEventFields())
        energy.*f.field += l.energy(row, a).*f.field;
    }
  if (net.messages != noc.messages || net.broadcasts != noc.broadcasts ||
      net.flits != noc.linkFlits)
    return "ledger NoC rows != chip";
  for (const EnergyEventField& f : energyEventFields())
    if (energy.*f.field != events.*f.field)
      return std::string("ledger energy rows != chip: ") + f.name;

  if (rec.transactions() != stats.missLatency.count())
    return "stage transactions != misses";
  double total = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    double classSum = 0;
    for (std::size_t s = 0; s < kStageCount; ++s)
      classSum += rec.latency(static_cast<MissClass>(c),
                              static_cast<Stage>(s)).sum();
    // Exact on purpose: integer tick sums far below 2^53.
    if (classSum != stats.latencyByClass[c].sum())
      return "stage sums != class miss latency";
    total += classSum;
  }
  if (total != stats.missLatency.sum()) return "stage sums != miss latency";
  return {};
}

// --- Statistics -------------------------------------------------------------

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
};

/// Median and quartiles, the latter as Python's statistics.quantiles(n=4)
/// (exclusive method) computes them.
Summary summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  s.median = n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = xs[0];
    return s;
  }
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = (n + 1) * i;
    std::size_t j = m / 4;
    const double delta = static_cast<double>(m % 4) / 4.0;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    return xs[j - 1] + delta * (xs[j] - xs[j - 1]);
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

// --- One timed repetition ---------------------------------------------------

/// Measurements of one (workload, protocol) simulation.
struct PairRun {
  ProtocolKind protocol = ProtocolKind::Directory;
  double workloadBuildS = 0, systemBuildS = 0, warmupS = 0, windowS = 0;
  double snapshotS = 0;  ///< Attach + registry snapshot.
  std::uint64_t ops = 0, cycles = 0, events = 0;
  std::uint64_t l1Misses = 0, memoryFetches = 0;
  std::uint64_t nocMessages = 0, broadcasts = 0, linkFlits = 0;
  std::uint64_t digest = 0;
  std::string error;  ///< Identity-check failure (empty = ok).
};

struct Rep {
  std::vector<PairRun> pairs;
  double wallS = 0, exportS = 0, reportS = 0;  ///< wallS excludes probes.
  /// Median of the L2 probes taken before each pair and after the last.
  double probeNs = 0;
  std::string exportError;
};

/// Factor that rescales a repetition's host seconds to kRefL2LoadNs.
double hostScale(const Rep& r) {
  return std::pow(kRefL2LoadNs / r.probeNs, kL2Elasticity);
}

PairRun runPair(const BenchWorkload& w, ProtocolKind kind,
                std::uint64_t seed, std::vector<MetricsDoc>& docs) {
  const CmpConfig chip{};
  PairRun pr;
  pr.protocol = kind;
  const auto perVm = profiles::byWorkloadName(w.mix);
  const VmLayout layout =
      VmLayout::matched(chip, static_cast<std::uint32_t>(perVm.size()));

  auto t = Clock::now();
  auto workload = std::make_unique<Workload>(chip, layout, perVm, seed,
                                             /*dedupEnabled=*/true);
  pr.workloadBuildS = secondsSince(t);

  t = Clock::now();
  CmpSystem sys(chip, kind, std::move(workload));
  pr.systemBuildS = secondsSince(t);

  t = Clock::now();
  sys.warmup(kWarmupCycles);
  pr.warmupS = secondsSince(t);

  // Paper-figure outputs attach after warmup, as in runExperiment, so
  // they cover exactly the measured window.
  t = Clock::now();
  MetricRegistry registry;
  std::unique_ptr<StageRecorder> stage;
  std::unique_ptr<AttributionLedger> ledger;
  if (w.report) {
    registerSystem(registry, sys);
    stage = std::make_unique<StageRecorder>();
    sys.attachStageRecorder(stage.get());
    registerStageRecorder(registry, *stage);
    ledger = std::make_unique<AttributionLedger>(
        chip, layout,
        [wl = &sys.workload()](Addr page) { return wl->vmOfPage(page); },
        ObsOptions{}.ledgerOccupancyEvery);
    sys.attachLedger(ledger.get());
    registerLedger(registry, *ledger, &sys);
  }
  pr.snapshotS = secondsSince(t);

  const std::uint64_t eventsBefore = sys.events().executedEvents();
  t = Clock::now();
  sys.run(kWindowCycles);
  pr.windowS = secondsSince(t);
  pr.events = sys.events().executedEvents() - eventsBefore;

  if (w.report) {
    t = Clock::now();
    docs.push_back({w.mix, protocolName(kind), registry.snapshot(), {}, 0});
    pr.snapshotS += secondsSince(t);
  }

  const ProtocolStats& stats = sys.protocol().stats();
  const NocStats& noc = sys.network().stats();
  pr.ops = sys.opsCompleted();
  pr.cycles = sys.cycles();
  pr.l1Misses = stats.l1Misses();
  pr.memoryFetches = stats.memoryFetches;
  pr.nocMessages = noc.messages;
  pr.broadcasts = noc.broadcasts;
  pr.linkFlits = noc.linkFlits;
  pr.digest = resultDigest(pr.ops, pr.cycles, stats, noc,
                           sys.protocol().energyEvents());
  if (w.report) {
    pr.error = checkIdentities(*ledger, *stage, stats, noc,
                               sys.protocol().energyEvents());
    // Detach before the recorders go out of scope (they die before sys).
    sys.attachLedger(nullptr);
    sys.attachStageRecorder(nullptr);
  }
  return pr;
}

/// eecc_report's pipeline over one repetition's stats JSON: reload,
/// build the paper-figure tables, write them. Returns an error or "".
std::string buildReportTables(const BenchWorkload& w,
                              const std::string& statsPath,
                              const std::string& outDir) {
  std::vector<StatsRun> runs;
  std::string error;
  if (!loadStatsRuns(statsPath, runs, error)) return error;
  if (runs.size() != w.protocols.size()) return "stats JSON run count";
  const Report report = buildReport(runs);
  const std::string base = outDir + "/" + w.name + ".";
  bool ok = report.energy.size() == runs.size() && !report.perVm.empty();
  ok = writeReportJson(base + "report.json", report) && ok;
  ok = writeEnergyBreakdownCsv(base + "energy_breakdown.csv", report) && ok;
  ok = writePerVmCsv(base + "per_vm.csv", report) && ok;
  ok = writeInterferenceCsv(base + "interference.csv", report) && ok;
  ok = writeStageLatencyCsv(base + "stage_latency.csv", report) && ok;
  ok = writeReportMarkdown(base + "report.md", report) && ok;
  return ok ? "" : "report tables";
}

Rep runRep(const BenchWorkload& w, std::uint64_t seed,
           const std::string& outDir) {
  Rep rep;
  std::vector<double> probes;
  double probeS = 0;
  const auto probe = [&] {
    const auto t = Clock::now();
    probes.push_back(l2ProbeNs());
    probeS += secondsSince(t);
  };
  const auto t0 = Clock::now();
  std::vector<MetricsDoc> docs;
  for (const ProtocolKind kind : w.protocols) {
    probe();
    rep.pairs.push_back(runPair(w, kind, seed, docs));
  }
  probe();

  if (w.report) {
    auto t = Clock::now();
    const std::string statsPath = outDir + "/" + w.name + ".stats.json";
    if (!writeStatsJson(statsPath, docs)) rep.exportError = "writeStatsJson";
    rep.exportS = secondsSince(t);

    t = Clock::now();
    if (rep.exportError.empty())
      rep.exportError = buildReportTables(w, statsPath, outDir);
    rep.reportS = secondsSince(t);
  }
  rep.wallS = secondsSince(t0) - probeS;
  rep.probeNs = summarize(std::move(probes)).median;
  return rep;
}

/// Host nanoseconds per Workload::next draw, round-robin over the active
/// tiles of a freshly built generator (outside the simulator). `checksum`
/// folds every drawn address so the draws cannot be elided and must
/// repeat exactly for a given seed.
double genNsPerOp(const BenchWorkload& w, std::uint64_t seed,
                  std::uint64_t& checksum) {
  const CmpConfig chip{};
  const auto perVm = profiles::byWorkloadName(w.mix);
  Workload gen(chip,
               VmLayout::matched(chip, static_cast<std::uint32_t>(perVm.size())),
               perVm, seed, true);
  std::vector<NodeId> tiles;
  for (NodeId t = 0; t < chip.tiles(); ++t)
    if (gen.tileActive(t)) tiles.push_back(t);
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kGenDraws; ++i) {
    const MemOp op = gen.next(tiles[i % tiles.size()]);
    sum = sum * 31 + op.addr + op.computeCycles;
  }
  const double s = secondsSince(t0);
  checksum = sum;
  return s * 1e9 / static_cast<double>(kGenDraws);
}

ExperimentConfig tracedConfig(const BenchWorkload& w, ProtocolKind kind,
                              std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.workloadName = w.mix;
  cfg.warmupCycles = kWarmupCycles;
  cfg.windowCycles = kWindowCycles;
  cfg.seed = seed;
  cfg.obs.snapshotMetrics = w.report;
  cfg.obs.ledger = w.report;
  cfg.obs.stageTrace = w.report;
  cfg.obs.selfProf = true;
  return cfg;
}

// --- Self-profile aggregation -----------------------------------------------

struct SelfProfTotals {
  double popS = 0, dispatchSelfS = 0, sendS = 0, drainS = 0;
  double snoopLookupS = 0, lookupS = 0, victimS = 0, interpretS = 0;
  std::uint64_t sendCalls = 0, snoopLookupCalls = 0, lookupCalls = 0;
  std::uint64_t interpretCalls = 0;
  double windowS = 0;

  void add(const std::vector<SelfProfiler::Row>& rows, std::uint64_t wallNs) {
    windowS += static_cast<double>(wallNs) * 1e-9;
    for (const SelfProfiler::Row& r : rows) {
      const std::size_t cut = r.path.rfind(';');
      const std::string leaf =
          cut == std::string::npos ? r.path : r.path.substr(cut + 1);
      const double s = static_cast<double>(r.selfNs) * 1e-9;
      if (leaf == "kernel.pop") {
        popS += s;
      } else if (leaf == "kernel.dispatch") {
        dispatchSelfS += s;
      } else if (leaf == "noc.send") {
        sendS += s;
        sendCalls += r.calls;
      } else if (leaf == "noc.drain") {
        drainS += s;
      } else if (leaf == "table.interpret") {
        interpretS += s;
        interpretCalls += r.calls;
      } else if (leaf == "cache.victim") {
        victimS += s;
      } else if (leaf == "cache.lookup") {
        lookupS += s;
        lookupCalls += r.calls;
        if (r.path.find("noc.drain") != std::string::npos) {
          snoopLookupS += s;
          snoopLookupCalls += r.calls;
        }
      }
    }
  }
};

// --- Output -------------------------------------------------------------

struct Metric {
  std::string name, unit;
  Summary s;
};

void printTable(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n%-44s %-12s %14s %14s %14s %4s\n", title, "metric",
              "unit", "median", "q1", "q3", "n");
  for (const Metric& m : ms)
    std::printf("%-44s %-12s %14.6g %14.6g %14.6g %4zu\n", m.name.c_str(),
                m.unit.c_str(), m.s.median, m.s.q1, m.s.q3, m.s.n);
}

std::string jsonMetrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].s.median);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload snoop-apache|dico-mixcom-report|"
               "sci-hitpath --seed N\n"
               "       (--seconds S --trace 0|1 --reference FILE "
               "--out-dir DIR | --record)\n",
               argv0);
  std::exit(2);
}

int benchMain(int argc, char** argv) {
  std::string workloadName, referencePath, outDir = ".";
  std::uint64_t seed = 1, seconds = 10;
  bool trace = false, record = false, seedGiven = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      workloadName = next();
    } else if (arg == "--seed") {
      seed = cli::parseU64("--seed", next());
      seedGiven = true;
    } else if (arg == "--seconds") {
      seconds = cli::parseU64("--seconds", next());
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage(argv[0]);
      trace = v == "1";
    } else if (arg == "--reference") {
      referencePath = next();
    } else if (arg == "--out-dir") {
      outDir = next();
    } else if (arg == "--record") {
      record = true;
    } else {
      usage(argv[0]);
    }
  }
  const BenchWorkload* w = nullptr;
  for (const BenchWorkload& cand : benchWorkloads())
    if (workloadName == cand.name) w = &cand;
  if (w == nullptr || !seedGiven || (!record && referencePath.empty()))
    usage(argv[0]);

  if (record) {
    // One repetition, digests only: the lines of the reference file.
    const Rep rep = runRep(*w, seed, outDir);
    for (const PairRun& pr : rep.pairs)
      std::printf("%s %s %llu %s\n", w->name, slug(pr.protocol).c_str(),
                  static_cast<unsigned long long>(seed),
                  hex(pr.digest).c_str());
    return 0;
  }

  const auto reference = loadReference(referencePath);
  const std::size_t np = w->protocols.size();
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) {
    failed += 1;
    if (failures.size() < 20) failures.push_back(what);
  };
  // Digest of each protocol, fixed by the first repetition.
  std::vector<std::optional<std::uint64_t>> digests(np);
  const auto checkDigest = [&](std::size_t p, std::uint64_t d,
                               const char* where) -> bool {
    const std::string key = std::string(w->name) + " " +
                            slug(w->protocols[p]) + " " +
                            std::to_string(seed);
    const auto ref = reference.find(key);
    if (ref != reference.end() && ref->second != hex(d)) {
      fail(key + ": " + where + " digest " + hex(d) + " != reference " +
           ref->second);
      return false;
    }
    if (!digests[p]) digests[p] = d;
    if (*digests[p] != d) {
      fail(key + ": " + where + " digest " + hex(d) +
           " differs from the first repetition's " + hex(*digests[p]));
      return false;
    }
    return true;
  };

  std::printf("perfbench workload=%s mix=%s seed=%llu warmup=%llu "
              "window=%llu cycles trace=%d\n",
              w->name, w->mix, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(kWarmupCycles),
              static_cast<unsigned long long>(kWindowCycles), trace ? 1 : 0);

  // --- Timed, untraced repetitions ---
  std::vector<Rep> reps;
  std::vector<double> genNs;
  std::optional<std::uint64_t> genChecksum;
  const auto start = Clock::now();
  for (int done = 0; done < kMinReps ||
                     secondsSince(start) < static_cast<double>(seconds);
       ++done) {
    Rep rep;
    try {
      rep = runRep(*w, seed, outDir);
    } catch (const std::exception& e) {
      attempted += np;
      for (const ProtocolKind kind : w->protocols)
        fail(slug(kind) + ": repetition threw: " + e.what());
      continue;
    }
    for (std::size_t p = 0; p < np; ++p) {
      attempted += 1;
      const PairRun& pr = rep.pairs[p];
      if (!rep.exportError.empty()) {
        fail(slug(pr.protocol) + ": export/report failed: " + rep.exportError);
      } else if (!pr.error.empty()) {
        fail(slug(pr.protocol) + ": " + pr.error);
      } else {
        checkDigest(p, pr.digest, "repetition");
      }
    }
    double setupS = 0, warmupS = 0, windowS = 0, ops = 0;
    for (const PairRun& pr : rep.pairs) {
      setupS += pr.workloadBuildS + pr.systemBuildS;
      warmupS += pr.warmupS;
      windowS += pr.windowS;
      ops += static_cast<double>(pr.ops);
    }
    std::printf("rep %zu: wall %.4f s  setup %.4f s  warmup %.4f s  "
                "window %.4f s  %.0f ops/s  l2 %.3f ns\n",
                reps.size() + 1, rep.wallS, setupS, warmupS, windowS,
                ops / windowS, rep.probeNs);
    reps.push_back(std::move(rep));

    attempted += 1;
    std::uint64_t checksum = 0;
    genNs.push_back(genNsPerOp(*w, seed, checksum));
    if (!genChecksum) genChecksum = checksum;
    if (*genChecksum != checksum) fail("Workload::next stream not repeatable");
  }
  if (reps.empty()) {
    std::fprintf(stderr, "perfbench: every repetition failed\n");
    return 1;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // Per-repetition series.
  const auto series = [&](const std::function<double(const Rep&)>& f) {
    std::vector<double> xs;
    for (const Rep& r : reps) xs.push_back(f(r));
    return summarize(std::move(xs));
  };
  const auto pairSum = [&](const std::function<double(const PairRun&)>& f) {
    return series([&](const Rep& r) {
      double s = 0;
      for (const PairRun& pr : r.pairs) s += f(pr);
      return s;
    });
  };
  const auto count = [&](std::uint64_t PairRun::*field) {
    return pairSum([field](const PairRun& pr) {
      return static_cast<double>(pr.*field);
    });
  };

  // Host times of one repetition. The end-to-end metrics rescale each
  // by its repetition's hostScale; the host.* metrics report them raw.
  const auto repOpsPerS = [](const Rep& r) {
    double ops = 0, s = 0;
    for (const PairRun& pr : r.pairs) {
      ops += static_cast<double>(pr.ops);
      s += pr.windowS;
    }
    return ops / s;
  };
  const auto repWallS = [](const Rep& r) { return r.wallS; };
  const auto repSetupS = [](const Rep& r) {
    double s = 0;
    for (const PairRun& pr : r.pairs) s += pr.workloadBuildS + pr.systemBuildS;
    return s;
  };
  const auto repWarmupS = [](const Rep& r) {
    double s = 0;
    for (const PairRun& pr : r.pairs) s += pr.warmupS;
    return s;
  };
  const auto scaled = [&](const std::function<double(const Rep&)>& f) {
    return series([&f](const Rep& r) { return f(r) * hostScale(r); });
  };
  std::vector<Metric> e2e = {
      {"sim_ops_per_s", "ops/s", series([&](const Rep& r) {
         return repOpsPerS(r) / hostScale(r);
       })},
      {"wall_s", "s", scaled(repWallS)},
      {"setup_s", "s", scaled(repSetupS)},
      {"warmup_s", "s", scaled(repWarmupS)},
      {"peak_rss_mb", "MB", summarize({peakRssMb})},
  };

  const Summary events = count(&PairRun::events);
  const Summary misses = count(&PairRun::l1Misses);
  std::vector<Metric> layers = {
      {"sim.events", "count", events},
      {"sim.events_per_miss", "events/miss",
       summarize({events.median / std::max(misses.median, 1.0)})},
      {"sim.ns_per_event", "ns", series([](const Rep& r) {
         double s = 0, n = 0;
         for (const PairRun& pr : r.pairs) {
           s += pr.windowS;
           n += static_cast<double>(pr.events);
         }
         return s * 1e9 / n;
       })},
      {"noc.messages", "count", count(&PairRun::nocMessages)},
      {"noc.broadcasts", "count", count(&PairRun::broadcasts)},
      {"noc.link_flits", "count", count(&PairRun::linkFlits)},
  };
  SelfProfTotals prof;
  if (trace) {
    for (std::size_t p = 0; p < np; ++p) {
      attempted += 1;
      try {
        const ExperimentResult r =
            runExperiment(tracedConfig(*w, w->protocols[p], seed));
        std::string error;
        if (w->report)
          error = checkIdentities(*r.ledger, *r.stageRec, r.stats, r.noc,
                                  r.events);
        if (!error.empty()) {
          fail(slug(w->protocols[p]) + ": traced run: " + error);
          continue;
        }
        if (!checkDigest(p, resultDigest(r.ops, r.cycles, r.stats, r.noc,
                                         r.events),
                         "traced run"))
          continue;
        prof.add(r.selfprof, r.selfprofWallNs);
      } catch (const std::exception& e) {
        fail(slug(w->protocols[p]) + ": traced run threw: " + e.what());
      }
    }
  }
  const auto one = [](double v) { return summarize({v}); };
  const double broadcasts = count(&PairRun::broadcasts).median;
  const Summary window = pairSum([](const PairRun& pr) { return pr.windowS; });
  // Self-times and call counts of the traced runs.
  const std::vector<Metric> traced = {
      {"sim.pop_s", "s", one(prof.popS)},
      {"sim.dispatch_self_s", "s", one(prof.dispatchSelfS)},
      {"noc.send_calls", "count",
       one(static_cast<double>(prof.sendCalls))},
      {"noc.send_s", "s", one(prof.sendS)},
      {"noc.drain_s", "s", one(prof.drainS)},
      {"cache.snoop_lookup_s", "s", one(prof.snoopLookupS)},
      {"cache.snoop_lookups_per_broadcast", "probes/bcast",
       one(broadcasts > 0
               ? static_cast<double>(prof.snoopLookupCalls) / broadcasts
               : 0.0)},
      {"cache.lookup_calls", "count",
       one(static_cast<double>(prof.lookupCalls))},
      {"cache.lookup_s", "s", one(prof.lookupS)},
      {"cache.victim_s", "s", one(prof.victimS)},
      {"protocols.table_interpret_s", "s", one(prof.interpretS)},
      {"protocols.table_interpret_calls", "count",
       one(static_cast<double>(prof.interpretCalls))},
  };
  if (trace) layers.insert(layers.end(), traced.begin(), traced.end());
  layers.push_back({"protocols.l1_misses", "count", misses});
  layers.push_back(
      {"protocols.memory_fetches", "count", count(&PairRun::memoryFetches)});
  // Per-pair headline: every protocol of the family gets a name; the
  // ones this workload does not run read 0.
  for (const ProtocolKind kind : allProtocolKinds()) {
    Summary s;
    for (std::size_t p = 0; p < np; ++p)
      if (w->protocols[p] == kind)
        s = series([p](const Rep& r) {
          return static_cast<double>(r.pairs[p].ops) / r.pairs[p].windowS;
        });
    layers.push_back(
        {"protocols." + slug(kind) + ".sim_ops_per_s", "ops/s", s});
  }
  layers.push_back({"workload.build_s", "s", pairSum([](const PairRun& pr) {
                      return pr.workloadBuildS;
                    })});
  layers.push_back({"workload.gen_ns_per_op", "ns", summarize(genNs)});
  layers.push_back({"core.system_build_s", "s", pairSum([](const PairRun& pr) {
                      return pr.systemBuildS;
                    })});
  layers.push_back({"core.ops", "count", count(&PairRun::ops)});
  layers.push_back({"core.model_ops_per_cycle", "ops/cycle",
                    one(count(&PairRun::ops).median /
                        count(&PairRun::cycles).median)});
  layers.push_back({"obs.snapshot_s", "s", pairSum([](const PairRun& pr) {
                      return pr.snapshotS;
                    })});
  layers.push_back(
      {"obs.export_s", "s", series([](const Rep& r) { return r.exportS; })});
  layers.push_back(
      {"obs.report_s", "s", series([](const Rep& r) { return r.reportS; })});
  if (trace)
    layers.push_back({"obs.selfprof_overhead", "ratio",
                      one(prof.windowS / window.median)});
  layers.push_back({"host.l2_load_ns", "ns",
                    series([](const Rep& r) { return r.probeNs; })});
  layers.push_back({"host.sim_ops_per_s", "ops/s", series(repOpsPerS)});
  layers.push_back({"host.wall_s", "s", series(repWallS)});
  layers.push_back({"host.setup_s", "s", series(repSetupS)});
  layers.push_back({"host.warmup_s", "s", series(repWarmupS)});

  printTable("end-to-end (untraced repetitions; medians over repetitions; "
             "times at the reference L2 latency)",
             e2e);
  printTable(trace ? "per-layer (counts and times: untraced repetitions; "
                     "self-times and calls: one self-profiled run per pair)"
                   : "per-layer (untraced; --trace 1 adds the self-profile)",
             layers);
  std::printf("\nresult check: %llu of %llu runs failed\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& f : failures) std::printf("  FAILED %s\n", f.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              jsonMetrics(trace ? layers : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace eecc

int main(int argc, char** argv) { return eecc::benchMain(argc, argv); }
