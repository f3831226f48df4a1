/**
 * @file
 * In-process half of the benchmark (perfbench/run.py is the other
 * half). It drives the simulator through its public API only and
 * prints one JSON document on stdout per invocation.
 *
 *   perfbench_driver setup --seed N
 *       The paper-matrix set-up alone: generate every kernel's inputs.
 *   perfbench_driver matrix --seed N [--trace] [--work DIR]
 *       One round of the paper-matrix workload: every Table 2 kernel
 *       under the four evaluated scheduler/policy configs, one thread.
 *       --trace adds the per-layer profile (phase split,
 *       fast-forward-off and checkpoint-resume identity runs, report
 *       JSON codec timing).
 *   perfbench_driver reference --specs FILE --out DIR [--threads T]
 *       Run each spec of FILE in process with runSweepJob() and write
 *       DIR/<job>.json (the cawa_sweep --out document) and
 *       DIR/<job>.report (the compact report a worker result frame
 *       carries), the oracle for the isolated and cawad results.
 *   perfbench_driver service-layers --specs FILE --cache DIR
 *                                   --journal PATH
 *       Time ResultCache::lookup on a stopped daemon's cache and
 *       JournalWriter::append on a fresh journal.
 *   perfbench_driver selftest
 *       Negative controls: each correctness check must reject a
 *       deliberately broken output.
 *   perfbench_driver spawn FILE PROGRAM [ARGS...]
 *       Run PROGRAM, forwarding SIGTERM/SIGINT to it, and write its
 *       peak RSS (KB) and CPU seconds, children included, to FILE.
 *       A process's peak RSS counts the address space it was forked
 *       from, so measuring a program forked from this small launcher
 *       instead of from a large parent keeps the parent out of it.
 *
 * A spec FILE holds one job per line: workload scheduler policy seed
 * scale.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/gpu.hh"
#include "sim/journal.hh"
#include "sim/report_json.hh"
#include "sim/service/protocol.hh"
#include "sim/service/result_cache.hh"
#include "sim/sweep.hh"
#include "workloads/registry.hh"
#include "workloads/sweep_jobs.hh"

namespace fs = std::filesystem;
using namespace cawa;

namespace
{

/**
 * Per-kernel problem scales: each (kernel, config) simulation costs
 * roughly the same host time, so no kernel dominates the matrix.
 */
struct MatrixKernel
{
    const char *name;
    double scale;
};

constexpr MatrixKernel kMatrixKernels[] = {
    {"bfs", 0.2},           {"b+tree", 0.22},       {"heartwall", 1.0},
    {"kmeans", 0.16},       {"needle", 0.65},       {"srad_1", 2.8},
    {"strcltr_small", 0.04}, {"backprop", 2.3},     {"particle", 4.4},
    {"pathfinder", 0.8},    {"strcltr_mid", 0.012}, {"tpacf", 0.56},
};

struct MatrixConfig
{
    const char *label;
    SchedulerKind scheduler;
    CachePolicyKind policy;
};

constexpr MatrixConfig kMatrixConfigs[] = {
    {"rr-lru", SchedulerKind::Lrr, CachePolicyKind::Lru},
    {"gto-lru", SchedulerKind::Gto, CachePolicyKind::Lru},
    {"2lvl-lru", SchedulerKind::TwoLevel, CachePolicyKind::Lru},
    {"gcaws-cacp", SchedulerKind::Gcaws, CachePolicyKind::Cacp},
};

constexpr std::size_t kNumKernels = std::size(kMatrixKernels);
constexpr std::size_t kNumConfigs = std::size(kMatrixConfigs);

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int i = 0; i < CPU_SETSIZE; ++i)
            if (CPU_ISSET(i, &set))
                cpus.push_back(i);
    return cpus;
}

void
moveToCpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

/** Metric names may not hold '+' (b+tree). */
std::string
metricName(std::string s)
{
    s.erase(std::remove(s.begin(), s.end(), '+'), s.end());
    return s;
}

/** Per-kernel input seed derived from the run's --seed. */
std::uint64_t
kernelSeed(std::uint64_t seed, std::size_t kernel)
{
    return seed * 1000 + kernel + 1;
}

GpuConfig
matrixGpuConfig(const MatrixConfig &mc)
{
    GpuConfig cfg = GpuConfig::fermiGtx480();
    cfg.scheduler = mc.scheduler;
    cfg.l1Policy = mc.policy;
    return cfg;
}

// ---------------------------------------------------------------------
// Report checks (independent of any stored output)
// ---------------------------------------------------------------------

/**
 * Properties every completed report must have: it ran to completion,
 * the per-warp instruction counts of its block records sum to
 * sim.instructions, every warp's cycles are fully classified (issue
 * plus stall categories cover its lifetime, as in the SM-level
 * stall-accounting test), and IPC stays within the issue width.
 * Returns an empty string when all hold, else the first violation.
 */
std::string
checkReport(const SimReport &r, const GpuConfig &cfg)
{
    if (r.exitStatus != ExitStatus::Completed)
        return std::string("exit status ") + exitStatusName(r.exitStatus);
    std::uint64_t warp_insts = 0;
    for (const BlockRecord &b : r.blocks) {
        for (const WarpRecord &w : b.warps) {
            warp_insts += w.instructions;
            const std::uint64_t accounted =
                w.instructions + w.memStallCycles + w.aluStallCycles +
                w.structStallCycles + w.schedWaitCycles +
                w.barrierCycles + w.finishedWaitCycles;
            const std::uint64_t lifetime = b.endCycle - w.startCycle;
            if (accounted > lifetime + 1 || accounted + 2 < lifetime)
                return "stall accounting of block " +
                       std::to_string(b.id) + " warp " +
                       std::to_string(w.warpInBlock) + " covers " +
                       std::to_string(accounted) + " of " +
                       std::to_string(lifetime) + " cycles";
        }
    }
    if (warp_insts != r.instructions)
        return "per-warp instructions sum to " +
               std::to_string(warp_insts) + " but sim.instructions is " +
               std::to_string(r.instructions);
    if (r.stats.counterOr("sim.instructions") != r.instructions)
        return "stats sim.instructions disagrees with the report";
    const double width = static_cast<double>(cfg.numSms) *
                         cfg.numSchedulersPerSm;
    if (r.ipc() > width)
        return "IPC " + std::to_string(r.ipc()) + " exceeds " +
               std::to_string(width);
    return {};
}

std::string
compactJson(const SimReport &r)
{
    JsonWriteOptions opt;
    opt.pretty = false;
    return toJson(r, opt);
}

// ---------------------------------------------------------------------
// Minimal JSON output
// ---------------------------------------------------------------------

/** @p s as a JSON string literal (newlines folded to spaces). */
std::string
jsonQuote(const std::string &s)
{
    std::string q = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            q += '\\';
        q += (c == '\n') ? ' ' : c;
    }
    return q + "\"";
}

class JsonOut
{
  public:
    void
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        field(key, buf);
    }
    void
    integer(const std::string &key, std::uint64_t v)
    {
        field(key, std::to_string(v));
    }
    void
    boolean(const std::string &key, bool v)
    {
        field(key, v ? "true" : "false");
    }
    void raw(const std::string &key, const std::string &v) { field(key, v); }
    std::string done() const { return "{" + body_ + "}"; }

  private:
    void
    field(const std::string &key, const std::string &v)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += "\"" + key + "\":" + v;
    }
    std::string body_;
};

// ---------------------------------------------------------------------
// paper-matrix
// ---------------------------------------------------------------------

struct PhaseTimes
{
    double build = 0, launch = 0, run = 0, finish = 0, verify = 0;
};

struct JobRun
{
    SimReport report;
    bool verified = false;
    PhaseTimes t;
};

/** Build, simulate and functionally verify one matrix cell. */
JobRun
runMatrixJob(std::size_t k, const GpuConfig &cfg, std::uint64_t seed)
{
    JobRun out;
    double t0 = wallNow();
    auto wl = makeWorkload(kMatrixKernels[k].name);
    MemoryImage mem;
    WorkloadParams params;
    params.seed = kernelSeed(seed, k);
    params.scale = kMatrixKernels[k].scale;
    const KernelInfo kernel = wl->build(mem, params);
    double t1 = wallNow();
    Gpu gpu(cfg, mem);
    gpu.launch(kernel);
    double t2 = wallNow();
    gpu.runToCompletion();
    double t3 = wallNow();
    out.report = gpu.finish();
    double t4 = wallNow();
    out.verified = wl->verify(mem);
    double t5 = wallNow();
    out.t = {t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4};
    return out;
}

struct MatrixState
{
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Compact report per cell (identity oracle). */
    std::vector<std::string> reportJson;
    std::vector<SimReport> reports;
    std::uint64_t cycles = 0, insts = 0;
    double runSeconds = 0;
    PhaseTimes phases;
    std::vector<double> cellRunSeconds =
        std::vector<double>(kNumKernels * kNumConfigs, 0.0);
    /**
     * The round moves to another CPU before each job. On a shared host
     * each CPU's speed drifts on its own over tens of seconds, and a
     * single thread left on one CPU would carry that CPU's drift into
     * the whole run. (k + c) mod CPUs spreads every kernel and every
     * config over all CPUs.
     */
    std::vector<int> cpus;
};

void
matrixRound(std::uint64_t seed, MatrixState &st)
{
    for (std::size_t k = 0; k < kNumKernels; ++k) {
        std::uint64_t insts0 = 0;
        for (std::size_t c = 0; c < kNumConfigs; ++c) {
            const std::string cell = std::string(kMatrixKernels[k].name) +
                                     "." + kMatrixConfigs[c].label;
            const GpuConfig cfg = matrixGpuConfig(kMatrixConfigs[c]);
            st.attempted++;
            if (!st.cpus.empty())
                moveToCpu(st.cpus[(k + c) % st.cpus.size()]);
            JobRun jr;
            try {
                jr = runMatrixJob(k, cfg, seed);
            } catch (const std::exception &e) {
                st.failed++;
                st.errors.push_back(cell + ": " + e.what());
                continue;
            }
            const SimReport &r = jr.report;
            std::string why = checkReport(r, cfg);
            if (why.empty() && !jr.verified)
                why = "simulated image failed functional verification";
            if (why.empty() && c > 0 && r.instructions != insts0)
                why = "instruction count " +
                      std::to_string(r.instructions) +
                      " differs from the first config's " +
                      std::to_string(insts0);
            if (!why.empty())
                st.errors.push_back(cell + ": " + why);
            if (c == 0)
                insts0 = r.instructions;
            st.cycles += r.cycles;
            st.insts += r.instructions;
            st.runSeconds += jr.t.run;
            st.cellRunSeconds[k * kNumConfigs + c] += jr.t.run;
            st.phases.build += jr.t.build;
            st.phases.launch += jr.t.launch;
            st.phases.run += jr.t.run;
            st.phases.finish += jr.t.finish;
            st.phases.verify += jr.t.verify;
            st.reportJson.push_back(compactJson(r));
            st.reports.push_back(r);
        }
    }
}

/** Traced extras: every cell with fast-forward off must match. */
double
flatPass(std::uint64_t seed, MatrixState &st)
{
    double seconds = 0;
    for (std::size_t k = 0; k < kNumKernels; ++k) {
        for (std::size_t c = 0; c < kNumConfigs; ++c) {
            GpuConfig cfg = matrixGpuConfig(kMatrixConfigs[c]);
            cfg.fastForward = false;
            const JobRun jr = runMatrixJob(k, cfg, seed);
            seconds += jr.t.run;
            if (compactJson(jr.report) !=
                st.reportJson[k * kNumConfigs + c])
                st.errors.push_back(std::string(kMatrixKernels[k].name) +
                                    "." + kMatrixConfigs[c].label +
                                    ": fastForward=false report differs");
        }
    }
    return seconds;
}

struct CheckpointTimes
{
    double save = 0, restore = 0;
    std::uint64_t bytes = 0;
};

/**
 * Traced extras: pause each kernel's gcaws/cacp run at mid-run, save,
 * restore into a fresh Gpu over freshly built inputs, finish, and
 * require the plain run's report bytes.
 */
CheckpointTimes
checkpointPass(std::uint64_t seed, const std::string &dir,
               MatrixState &st)
{
    CheckpointTimes ct;
    const std::size_t c = kNumConfigs - 1;
    const GpuConfig cfg = matrixGpuConfig(kMatrixConfigs[c]);
    for (std::size_t k = 0; k < kNumKernels; ++k) {
        const std::string path =
            dir + "/" + metricName(kMatrixKernels[k].name) + ".ckpt";
        WorkloadParams params;
        params.seed = kernelSeed(seed, k);
        params.scale = kMatrixKernels[k].scale;
        const std::size_t cell = k * kNumConfigs + c;
        {
            auto wl = makeWorkload(kMatrixKernels[k].name);
            MemoryImage mem;
            const KernelInfo kernel = wl->build(mem, params);
            Gpu gpu(cfg, mem);
            gpu.launch(kernel);
            gpu.stepUntil(st.reports[cell].cycles / 2);
            const double t0 = wallNow();
            gpu.saveCheckpoint(path);
            ct.save += wallNow() - t0;
        }
        ct.bytes += fs::file_size(path);
        auto wl = makeWorkload(kMatrixKernels[k].name);
        MemoryImage mem;
        const KernelInfo kernel = wl->build(mem, params);
        Gpu gpu(cfg, mem);
        const double t0 = wallNow();
        gpu.restoreCheckpoint(path, kernel);
        ct.restore += wallNow() - t0;
        gpu.runToCompletion();
        const SimReport r = gpu.finish();
        if (compactJson(r) != st.reportJson[cell] || !wl->verify(mem))
            st.errors.push_back(std::string(kMatrixKernels[k].name) +
                                ": checkpoint-resumed report differs");
        fs::remove(path);
    }
    return ct;
}

/** The paper-matrix set-up: generate every kernel's inputs once. */
int
cmdSetup(std::uint64_t seed)
{
    for (std::size_t k = 0; k < kNumKernels; ++k) {
        auto wl = makeWorkload(kMatrixKernels[k].name);
        MemoryImage mem;
        WorkloadParams params;
        params.seed = kernelSeed(seed, k);
        params.scale = kMatrixKernels[k].scale;
        wl->build(mem, params);
    }
    return 0;
}

int
cmdMatrix(std::uint64_t seed, bool traced, const std::string &work)
{
    MatrixState st;
    st.cpus = allowedCpus();
    const double w0 = wallNow(), c0 = cpuNow();
    matrixRound(seed, st);
    const double wall = wallNow() - w0, cpu = cpuNow() - c0;

    JsonOut out;
    out.num("wall_s", wall);
    out.num("cpu_s", cpu);
    out.integer("attempted", st.attempted);
    out.integer("failed", st.failed);
    out.integer("sim_cycles", st.cycles);
    out.integer("sim_instructions", st.insts);
    out.num("sim_run_s", st.runSeconds);

    if (traced) {
        // Work counts of the round.
        std::map<std::string, double> counts;
        std::uint64_t l1_hits = 0, l2_hits = 0;
        for (const SimReport &r : st.reports) {
            counts["sim.cycles"] += r.cycles;
            counts["sim.instructions"] += r.instructions;
            for (const StatEntry &e : r.stats.entries()) {
                if (e.name.rfind("sched.", 0) == 0 &&
                    e.name.size() > 7 &&
                    e.name.compare(e.name.size() - 7, 7, ".issues") == 0)
                    counts["sched.issues"] += e.value;
            }
            counts["cpl.updates"] += r.stats.counterOr("cpl.issueUpdates") +
                                     r.stats.counterOr("cpl.branchUpdates") +
                                     r.stats.counterOr("cpl.barrierReleases");
            counts["l1.accesses"] += r.l1.accesses;
            counts["l1.mshr_rejects"] += r.l1.mshrRejects;
            counts["l2.accesses"] += r.l2.accesses;
            counts["dram.reads"] += r.dramReads;
            counts["dram.writes"] += r.dramWrites;
            counts["icnt.messages"] += r.stats.counterOr("icnt.messagesToL2") +
                                       r.stats.counterOr("icnt.messagesToSm");
            counts["dispatcher.blocks"] +=
                r.stats.counterOr("dispatcher.dispatchedBlocks");
            l1_hits += r.l1.hits;
            l2_hits += r.l2.hits;
        }
        counts["l1.hit_rate"] = counts["l1.accesses"]
            ? l1_hits / counts["l1.accesses"] : 0.0;
        counts["l2.hit_rate"] = counts["l2.accesses"]
            ? l2_hits / counts["l2.accesses"] : 0.0;

        JsonOut layers;
        for (const auto &[name, v] : counts)
            layers.num(name, v);
        layers.num("workloads.build_s", st.phases.build);
        layers.num("functional.verify_s", st.phases.verify);
        layers.num("sim.launch_s", st.phases.launch);
        layers.num("sim.run_s", st.phases.run);
        layers.num("sim.finish_s", st.phases.finish);
        for (std::size_t k = 0; k < kNumKernels; ++k) {
            double secs = 0, cyc = 0;
            for (std::size_t c = 0; c < kNumConfigs; ++c) {
                secs += st.cellRunSeconds[k * kNumConfigs + c];
                cyc += st.reports[k * kNumConfigs + c].cycles;
            }
            layers.num("sim.ns_per_cycle." +
                           metricName(kMatrixKernels[k].name),
                       secs * 1e9 / cyc);
        }
        for (std::size_t c = 0; c < kNumConfigs; ++c) {
            double secs = 0, insts = 0;
            for (std::size_t k = 0; k < kNumKernels; ++k) {
                secs += st.cellRunSeconds[k * kNumConfigs + c];
                insts += st.reports[k * kNumConfigs + c].instructions;
            }
            layers.num(std::string("sim.ns_per_inst.") +
                           kMatrixConfigs[c].label,
                       secs * 1e9 / insts);
        }

        layers.num("sim.run_flat_s", flatPass(seed, st));
        fs::create_directories(work);
        const CheckpointTimes ct = checkpointPass(seed, work, st);
        layers.num("checkpoint.save_s", ct.save);
        layers.num("checkpoint.restore_s", ct.restore);
        layers.num("checkpoint.bytes", static_cast<double>(ct.bytes));

        // Report JSON codec over the whole matrix, repeated so the
        // span lasts long enough to time.
        constexpr int kCodecReps = 5;
        double write_s = 0, parse_s = 0;
        for (int rep = 0; rep < kCodecReps; ++rep) {
            for (std::size_t i = 0; i < st.reports.size(); ++i) {
                double t0 = wallNow();
                const std::string doc = compactJson(st.reports[i]);
                double t1 = wallNow();
                const SimReport back = reportFromJson(doc);
                double t2 = wallNow();
                write_s += t1 - t0;
                parse_s += t2 - t1;
                if (rep == 0 && compactJson(back) != st.reportJson[i])
                    st.errors.push_back("report JSON round trip differs "
                                        "for cell " + std::to_string(i));
            }
        }
        layers.num("report_json.write_s", write_s / kCodecReps);
        layers.num("report_json.parse_s", parse_s / kCodecReps);
        out.raw("layers", layers.done());
    }

    std::string errs = "[";
    for (std::size_t i = 0; i < st.errors.size(); ++i)
        errs += (i ? "," : "") + jsonQuote(st.errors[i]);
    out.raw("errors", errs + "]");
    out.boolean("correct", st.errors.empty());
    std::printf("%s\n", out.done().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Job-service helpers
// ---------------------------------------------------------------------

std::vector<WorkloadJobSpec>
readSpecs(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read spec file " + path);
    std::vector<WorkloadJobSpec> specs;
    std::string wl, sched, policy;
    std::uint64_t seed = 0;
    double scale = 0;
    while (in >> wl >> sched >> policy >> seed >> scale) {
        WorkloadJobSpec spec;
        spec.workload = wl;
        spec.cfg = GpuConfig::fermiGtx480();
        spec.cfg.scheduler = schedulerKindFromName(sched);
        spec.cfg.l1Policy = cachePolicyKindFromName(policy);
        spec.params.seed = seed;
        spec.params.scale = scale;
        specs.push_back(spec);
    }
    return specs;
}

void
writeFile(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
}

int
cmdReference(const std::string &specFile, const std::string &outDir,
             int threads)
{
    const auto specs = readSpecs(specFile);
    fs::create_directories(outDir);
    const auto results = SweepEngine(threads).run(makeWorkloadJobs(specs));
    int bad = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string name = workloadJobName(specs[i]);
        const SweepResult &r = results[i];
        if (!r.ok() || !checkReport(r.report, specs[i].cfg).empty()) {
            std::fprintf(stderr, "reference %s: %s\n", name.c_str(),
                         r.error.empty()
                             ? checkReport(r.report, specs[i].cfg).c_str()
                             : r.error.c_str());
            bad++;
            continue;
        }
        JsonWriteOptions pretty; // the cawa_sweep --out document
        writeFile(fs::path(outDir) / (name + ".json"),
                  toJson(r.report, pretty) + "\n");
        writeFile(fs::path(outDir) / (name + ".report"),
                  compactJson(r.report));
        std::printf("%s\n", name.c_str());
    }
    return bad ? 1 : 0;
}

int
cmdServiceLayers(const std::string &specFile, const std::string &cacheDir,
                 const std::string &journalPath)
{
    const auto specs = readSpecs(specFile);
    ResultCache cache(cacheDir);
    constexpr int kLookupReps = 20;
    double lookup_s = 0;
    std::uint64_t lookups = 0, hits = 0;
    for (int rep = 0; rep < kLookupReps; ++rep) {
        for (const auto &spec : specs) {
            const std::string key = serviceCacheKey(
                workloadJobName(spec), configSignature(spec.cfg, false));
            std::string frame;
            const double t0 = wallNow();
            const bool hit = cache.lookup(key, frame);
            lookup_s += wallNow() - t0;
            lookups++;
            hits += hit && !frame.empty();
        }
    }

    constexpr int kAppends = 200;
    JournalWriter journal;
    journal.open(journalPath);
    double append_s = 0;
    for (int i = 0; i < kAppends; ++i) {
        JournalEntry e;
        e.job = workloadJobName(specs[i % specs.size()]);
        e.status = "ok";
        const double t0 = wallNow();
        journal.append(e);
        append_s += wallNow() - t0;
    }
    journal.close();

    JsonOut out;
    out.num("result_cache.lookup_us", lookup_s * 1e6 / lookups);
    out.num("journal.append_ms", append_s * 1e3 / kAppends);
    out.boolean("correct", hits == lookups);
    std::printf("%s\n", out.done().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Negative controls
// ---------------------------------------------------------------------

int
cmdSelftest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
        failures += !ok;
    };
    const std::size_t k = 0; // bfs
    const GpuConfig cfg = matrixGpuConfig(kMatrixConfigs[1]);
    auto wl = makeWorkload(kMatrixKernels[k].name);
    MemoryImage mem;
    WorkloadParams params;
    params.seed = kernelSeed(1, k);
    params.scale = 0.1;
    const KernelInfo kernel = wl->build(mem, params);
    const SimReport r = runKernel(cfg, mem, kernel);

    expect(wl->verify(mem) && checkReport(r, cfg).empty(),
           "an untouched run passes every check");

    // A wrong word in the simulated output image.
    const MemRange out = wl->outputs().front();
    mem.write32(out.base, mem.read32(out.base) ^ 0x1);
    expect(!wl->verify(mem), "a wrong output word fails verification");

    // Per-warp instructions that disagree with sim.instructions.
    SimReport bad = r;
    bad.blocks.front().warps.front().instructions += 1;
    bad.blocks.front().warps.front().memStallCycles -= 1;
    expect(checkReport(bad, cfg).find("per-warp instructions") !=
               std::string::npos,
           "a per-warp instruction sum off by one is rejected");

    // A warp whose cycles are not all classified.
    SimReport leak = r;
    leak.blocks.front().warps.front().memStallCycles += 10;
    expect(checkReport(leak, cfg).find("stall accounting") !=
               std::string::npos,
           "a stall-accounting leak is rejected");

    // An unfinished run.
    SimReport cut = r;
    cut.exitStatus = ExitStatus::Timeout;
    expect(!checkReport(cut, cfg).empty(), "a timed-out run is rejected");
    return failures ? 1 : 0;
}

pid_t spawnedChild = -1;

void
forwardSignal(int signo)
{
    if (spawnedChild > 0)
        kill(spawnedChild, signo);
}

int
cmdSpawn(const char *rusageFile, char **argv)
{
    spawnedChild = fork();
    if (spawnedChild < 0)
        return 127;
    if (spawnedChild == 0) {
        execvp(argv[0], argv);
        std::fprintf(stderr, "perfbench_driver spawn: cannot exec %s: %s\n",
                     argv[0], std::strerror(errno));
        _exit(127);
    }
    std::signal(SIGTERM, forwardSignal);
    std::signal(SIGINT, forwardSignal);
    int status = 0;
    rusage ru{};
    while (wait4(spawnedChild, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    std::FILE *f = std::fopen(rusageFile, "w");
    if (f) {
        std::fprintf(f, "%ld %.6f\n", ru.ru_maxrss,
                     ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
                         ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6);
        std::fclose(f);
    }
    return WIFEXITED(status) ? WEXITSTATUS(status)
                             : 128 + WTERMSIG(status);
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver setup --seed N\n"
                 "       perfbench_driver matrix --seed N [--trace] "
                 "[--work DIR]\n"
                 "       perfbench_driver reference --specs FILE --out DIR "
                 "[--threads T]\n"
                 "       perfbench_driver service-layers --specs FILE "
                 "--cache DIR --journal PATH\n"
                 "       perfbench_driver selftest\n"
                 "       perfbench_driver spawn FILE PROGRAM [ARGS...]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    if (cmd == "spawn") {
        if (argc < 4)
            usage();
        return cmdSpawn(argv[2], argv + 3);
    }
    std::map<std::string, std::string> opt;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--trace")
            opt[a] = "1";
        else if (a.rfind("--", 0) == 0 && i + 1 < argc)
            opt[a] = argv[++i];
        else
            usage();
    }
    auto get = [&](const char *key) {
        auto it = opt.find(key);
        if (it == opt.end())
            usage();
        return it->second;
    };
    try {
        if (cmd == "setup")
            return cmdSetup(std::stoull(get("--seed")));
        if (cmd == "matrix")
            return cmdMatrix(std::stoull(get("--seed")), opt.count("--trace"),
                             opt.count("--work") ? opt["--work"] : ".");
        if (cmd == "reference")
            return cmdReference(get("--specs"), get("--out"),
                                opt.count("--threads")
                                    ? std::stoi(opt["--threads"]) : 1);
        if (cmd == "service-layers")
            return cmdServiceLayers(get("--specs"), get("--cache"),
                                    get("--journal"));
        if (cmd == "selftest")
            return cmdSelftest();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver %s: %s\n", cmd.c_str(),
                     e.what());
        return 1;
    }
    usage();
}
