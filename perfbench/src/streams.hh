/**
 * @file
 * Seeded request streams. The program only ever sees the JSONL lines
 * built here; every stream is a pure function of the workload seed.
 */

#ifndef PERFBENCH_STREAMS_HH
#define PERFBENCH_STREAMS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One request line and what its response must look like. */
struct Line
{
    std::string text;
    /** Canary name (checked against golden.txt), or "". */
    std::string canary;
    /** A malformed line: must come back as an unknown_name error. */
    bool malformed = false;
};

/**
 * serve-miss pass `pass`: 4120 unique gcn-train requests (ddi, Cora
 * x GoPIM, ReGraphX x 1000 seeds, plus arxiv x both systems x 60 of
 * those seeds; Serial baseline, closed form) in a seeded order.
 * Passes never share a request.
 */
std::vector<Line> missPass(uint64_t seed, uint32_t pass);

/** `count` unique serve-miss-shaped requests used only for warm-up. */
std::vector<Line> missWarmup(uint64_t seed, size_t count);

/**
 * serve-zipf / router-zipf: `count` lines drawn Zipf (s = 1) over a
 * seeded universe of 1200 distinct requests mixing every family,
 * fault repair and engine, plus 1% malformed lines.
 */
std::vector<Line> zipfStream(uint64_t seed, size_t count);

/**
 * The fixed canary requests whose result digests are committed in
 * golden.txt. `missShape` restricts them to serve-miss's request
 * shape (closed-form gcn-train with a Serial baseline).
 */
std::vector<Line> canaries(bool missShape);

/** Put canary i at position (i + 1) * stride of `lines`. */
void insertCanaries(std::vector<Line> *lines,
                    const std::vector<Line> &canaryLines, size_t stride);

} // namespace perfbench

#endif // PERFBENCH_STREAMS_HH
