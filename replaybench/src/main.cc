/**
 * @file
 * Replay-path benchmark entry point: runs one workload for a fixed time and
 * prints, as its last line, one JSON object with the operation counts,
 * whether every check passed, and the end-to-end metrics (untraced run)
 * or the per-layer metrics (traced run).
 *
 *   replaybench --workload=hpc-fields --seed=1 --seconds=10 --trace=0
 *
 * run.py builds this binary and wraps it; see README.md.
 */

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/cli.h"
#include "obs/json.h"

using namespace buddy;
using namespace buddy::bench;

namespace {

void
printMachine(const std::string &commit)
{
    std::printf("machine: nproc=%u compiler=\"%s\" build=%s commit=%s\n",
                std::thread::hardware_concurrency(), REPLAYBENCH_COMPILER,
                REPLAYBENCH_BUILD_TYPE, commit.c_str());
}

std::string
resultLine(const Outcome &out, bool traced)
{
    obs::JsonWriter w;
    w.beginObject()
        .key("correct").value(out.failed() == 0 && out.attempted > 0)
        .key("attempted").value(out.attempted)
        .key("failed").value(out.failed())
        .key("metrics").beginObject();
    for (const auto &kv :
         traced ? out.layerMetrics() : out.endToEndMetrics()) {
        w.key(kv.first).beginObject()
            .key("value").value(kv.second.value)
            .key("unit").value(kv.second.unit)
            .endObject();
    }
    w.endObject().endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags cli("replaybench", "host-time benchmark of the replay path");
    cli.addEnum("workload", "hpc-fields",
                {{"hpc-fields", 0}, {"dl-probe", 1}, {"tenant-fleet", 2}},
                "workload to run");
    cli.addUint("seed", 1, "input seed");
    cli.addUint("seconds", 20, "length of the timed phase");
    cli.addUint("trace", 0, "1 = traced run reporting per-layer metrics");
    cli.addEnum("inject", "none",
                {{"none", static_cast<u64>(Inject::None)},
                 {"corrupt-entry", static_cast<u64>(Inject::CorruptEntry)},
                 {"drop-batch", static_cast<u64>(Inject::DropBatch)},
                 {"perturb-total", static_cast<u64>(Inject::PerturbTotal)}},
                "self-test: plant a fault in one expected value");
    cli.addUint("setup-reps", 3, "set-ups per run (setup_s is the median)");
    cli.addString("spans-out", "", "traced run: write spans here as JSON");
    cli.addString("commit", "unknown", "source revision, for the record");
    if (!cli.parse(argc, argv))
        return 0;
    if (cli.uintOf("trace") > 1 || cli.uintOf("seconds") == 0 ||
        cli.uintOf("setup-reps") == 0) {
        std::fprintf(stderr, "--trace must be 0 or 1; --seconds and "
                             "--setup-reps must be positive\n");
        return 2;
    }

    Options opt;
    opt.seed = cli.uintOf("seed");
    opt.seconds = static_cast<double>(cli.uintOf("seconds"));
    opt.trace = cli.uintOf("trace") == 1;
    opt.inject = static_cast<Inject>(cli.enumOf("inject"));
    opt.threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    opt.setupReps = static_cast<unsigned>(cli.uintOf("setup-reps"));

    printMachine(cli.stringOf("commit"));
    std::printf("workload %s, seed %llu, %.0f s, trace %d, inject %s, "
                "at most %u engine threads\n",
                cli.enumTokenOf("workload").c_str(),
                (unsigned long long)opt.seed, opt.seconds, opt.trace ? 1 : 0,
                cli.enumTokenOf("inject").c_str(), opt.threads);

    Tracer tr(opt.trace);
    Outcome out;
    {
        Tracer::Scope run(tr, "run");
        switch (cli.enumOf("workload")) {
          case 0: runHpcFields(opt, tr, out); break;
          case 1: runDlProbe(opt, tr, out); break;
          default: runTenantFleet(opt, tr, out); break;
        }
    }
    out.endToEnd("peak_rss_mb", peakRssMiB(), "MiB");

    if (opt.trace) {
        tr.printSelfTimes();
        if (!cli.stringOf("spans-out").empty()) {
            tr.write(cli.stringOf("spans-out"));
            std::printf("spans -> %s\n", cli.stringOf("spans-out").c_str());
        }
    }
    std::printf("%s\n", resultLine(out, opt.trace).c_str());
    return out.failed() == 0 ? 0 : 1;
}
