#include "streams.hh"

#include <algorithm>

#include "common/rng.hh"

namespace perfbench {

namespace {

/** Request seeds the generated streams use start here, clear of the
 *  canaries' fixed seeds. */
constexpr uint64_t kSeedFloor = 1000000;

std::string
gcnLine(const std::string &id, const char *dataset, const char *system,
        uint64_t seed, const std::string &extra = "")
{
    return "{\"id\":\"" + id + "\",\"dataset\":\"" + dataset +
           "\",\"system\":\"" + system +
           "\",\"baseline\":\"Serial\",\"seed\":" + std::to_string(seed) +
           extra + "}";
}

std::string
familyLine(const std::string &id, const char *family,
           const char *dataset, const char *system, uint64_t seed,
           const std::string &extra = "", bool baseline = true)
{
    return "{\"id\":\"" + id + "\",\"workload\":\"" + family +
           "\",\"dataset\":\"" + dataset + "\",\"system\":\"" + system +
           (baseline ? "\",\"baseline\":\"Serial" : "") +
           "\",\"seed\":" + std::to_string(seed) + extra + "}";
}

const char *const kMissDatasets[] = {"ddi", "Cora"};
const char *const kMissSystems[] = {"GoPIM", "ReGraphX"};
/**
 * serve-miss's heavy tier: a large graph whose misses cost ~30 ms
 * against 0.6-2 ms for ddi and Cora. Each pass holds 60 seeds x both
 * systems of it (2.9% of the pass), so the p99 falls inside this
 * tier's own cost rather than on the few light requests a host
 * preemption happened to stretch.
 */
const char *const kHeavyDataset = "arxiv";
constexpr uint64_t kHeavySeeds = 60;
/** Every kHeavyWarmupStride-th warm-up line is a heavy one. */
constexpr size_t kHeavyWarmupStride = 25;

/** Fault knobs of the three repair policies. */
const char *const kRepairs[] = {
    ",\"stuck_on_rate\":0.002,\"stuck_off_rate\":0.001,"
    "\"repair\":\"spare\",\"spare_rows\":0.05",
    ",\"stuck_on_rate\":0.002,\"drift_rate\":0.01,\"repair\":\"ecc\"",
    ",\"drift_rate\":0.02,\"repair\":\"refresh\",\"refresh_period\":50",
};

/** "<tag><n>", e.g. a request id. */
std::string
tagged(char tag, uint64_t n)
{
    std::string out(1, tag);
    out += std::to_string(n);
    return out;
}

/** Request body (no id) of distinct universe member `index`. */
std::string
universeMember(size_t index, uint64_t seedBase)
{
    // 480 closed-form gcn-train, 180 gnn-infer, 120 cnn-infer,
    // 240 faulty gcn-train, 180 event/replay with write retries. The
    // inference requests carry no baseline: with one they cost twice
    // any other miss, and bursts of them would set the p99 alone.
    const char *const gcnSystems[] = {"GoPIM", "ReGraphX",
                                      "SlimGNN-like", "GoPIM-Vanilla"};
    const char *const partitions[] = {"row", "col", "nnz"};
    const char *const presets[] = {"mnist", "cifar", "tiny-imagenet"};
    const char *const engines[] = {"event", "replay"};
    size_t i = index;
    const std::string id = "ID";
    if (i < 480) {
        return gcnLine(id, kMissDatasets[i % 2], gcnSystems[(i / 2) % 4],
                       seedBase + i / 8);
    }
    i -= 480;
    if (i < 180) {
        return familyLine(id, "gnn-infer", "Cora", kMissSystems[i % 2],
                          seedBase + i / 6,
                          std::string(",\"partition\":\"") +
                              partitions[(i / 2) % 3] + "\"",
                          false);
    }
    i -= 180;
    if (i < 120) {
        return familyLine(id, "cnn-infer", presets[i % 3],
                          kMissSystems[(i / 3) % 2], seedBase + i / 6, "",
                          false);
    }
    i -= 120;
    if (i < 240) {
        return gcnLine(id, kMissDatasets[i % 2], "GoPIM",
                       seedBase + i / 6, kRepairs[(i / 2) % 3]);
    }
    i -= 240;
    return gcnLine(id, kMissDatasets[i % 2], "GoPIM", seedBase + i / 4,
                   std::string(",\"engine\":\"") + engines[(i / 2) % 2] +
                       "\",\"retry_prob\":0.05,\"write_fraction\":0.3");
}

/** Universe members per request kind, in universeMember order. */
const std::vector<size_t> kKinds = {480, 180, 120, 240, 180};
/**
 * Members per seed group of each kind: within a group the dataset,
 * system, partition, preset, repair or engine cycles in a fixed order.
 */
const std::vector<size_t> kGroups = {8, 6, 6, 6, 4};
constexpr size_t kUniverse = 1200;

std::string
withId(const std::string &body, const std::string &id)
{
    const size_t at = body.find("\"ID\"");
    return body.substr(0, at) + "\"" + id + "\"" + body.substr(at + 4);
}

} // namespace

std::vector<Line>
missPass(uint64_t seed, uint32_t pass)
{
    gopim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
    const uint64_t base = kSeedFloor + rng.uniformInt(uint64_t{1} << 40);
    std::vector<Line> lines;
    lines.reserve(4000 + 2 * kHeavySeeds);
    const std::string prefix = tagged('m', pass) + "-";
    auto add = [&](const char *dataset, uint64_t requestSeed) {
        for (const char *system : kMissSystems)
            lines.push_back({gcnLine(prefix + std::to_string(lines.size()),
                                     dataset, system, requestSeed),
                             "", false});
    };
    for (uint64_t i = 0; i < 1000; ++i) {
        const uint64_t requestSeed = base + uint64_t{pass} * 1000 + i;
        for (const char *dataset : kMissDatasets)
            add(dataset, requestSeed);
        if (i < kHeavySeeds)
            add(kHeavyDataset, requestSeed);
    }
    gopim::Rng order(seed + 977 * (pass + 1));
    for (size_t i = lines.size(); i > 1; --i)
        std::swap(lines[i - 1], lines[order.uniformInt(uint64_t{i})]);
    return lines;
}

std::vector<Line>
missWarmup(uint64_t seed, size_t count)
{
    gopim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
    // Below the pass seeds, which start at `base`.
    const uint64_t base = kSeedFloor + rng.uniformInt(uint64_t{1} << 40);
    std::vector<Line> lines;
    for (size_t i = 0; i < count; ++i)
        lines.push_back({gcnLine(tagged('w', i),
                                 i % kHeavyWarmupStride ==
                                         kHeavyWarmupStride - 1
                                     ? kHeavyDataset
                                     : kMissDatasets[i % 2],
                                 kMissSystems[(i / 2) % 2],
                                 base - 1 - i / 4),
                         "", false});
    return lines;
}

std::vector<Line>
zipfStream(uint64_t seed, size_t count)
{
    gopim::Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
    const uint64_t seedBase = kSeedFloor + rng.uniformInt(uint64_t{1} << 40);

    // Zipf rank r -> universe member. Ranks are dealt to the request
    // kinds in fixed proportion (each rank goes to the kind furthest
    // behind its share), and within a kind to its seed groups in a
    // seeded order, each group's members in their fixed order. So every
    // prefix of the ranking, the hot set included, has the same mix of
    // kinds, datasets, systems and engines for every seed; the seed
    // only picks the request seeds behind each rank.
    std::vector<std::vector<size_t>> pools(kKinds.size());
    for (size_t k = 0, first = 0; k < kKinds.size(); ++k) {
        std::vector<size_t> groups(kKinds[k] / kGroups[k]);
        for (size_t g = 0; g < groups.size(); ++g)
            groups[g] = g;
        for (size_t i = groups.size(); i > 1; --i)
            std::swap(groups[i - 1], groups[rng.uniformInt(uint64_t{i})]);
        for (size_t g : groups)
            for (size_t j = 0; j < kGroups[k]; ++j)
                pools[k].push_back(first + g * kGroups[k] + j);
        first += kKinds[k];
    }
    std::vector<size_t> member;
    std::vector<size_t> dealt(kKinds.size(), 0);
    for (size_t r = 0; r < kUniverse; ++r) {
        size_t pick = 0;
        double behind = -1.0;
        for (size_t k = 0; k < kKinds.size(); ++k) {
            const double gap = static_cast<double>(kKinds[k]) *
                                   static_cast<double>(r + 1) / kUniverse -
                               static_cast<double>(dealt[k]);
            if (dealt[k] < kKinds[k] && gap > behind) {
                behind = gap;
                pick = k;
            }
        }
        member.push_back(pools[pick][dealt[pick]++]);
    }
    std::vector<double> cdf(kUniverse);
    double total = 0.0;
    for (size_t r = 0; r < kUniverse; ++r)
        cdf[r] = total += 1.0 / static_cast<double>(r + 1);

    std::vector<Line> lines;
    lines.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        const std::string id = tagged('z', i);
        if (rng.uniform() < 0.01) {
            lines.push_back({"{\"id\":\"" + id +
                                 "\",\"dataset\":\"no-such-graph-" +
                                 std::to_string(i % 7) + "\"}",
                             "", true});
            continue;
        }
        const double u = rng.uniform() * total;
        const size_t rank = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        lines.push_back(
            {withId(universeMember(member[std::min(rank, kUniverse - 1)],
                                   seedBase),
                    id),
             "", false});
    }
    return lines;
}

std::vector<Line>
canaries(bool missShape)
{
    std::vector<Line> out;
    auto add = [&out](const std::string &name, const std::string &text) {
        out.push_back({text, name, false});
    };
    for (uint64_t seed = 1; seed <= 2; ++seed)
        for (const char *dataset : kMissDatasets)
            for (const char *system : kMissSystems) {
                const std::string name = std::string("gcn-") + dataset +
                                         "-" + system + "-s" +
                                         std::to_string(seed);
                add(name, gcnLine("c-" + name, dataset, system, seed));
            }
    if (missShape)
        return out;
    for (const char *partition : {"row", "col", "nnz"}) {
        const std::string name = std::string("gnn-Cora-") + partition;
        add(name, familyLine("c-" + name, "gnn-infer", "Cora", "GoPIM", 1,
                             std::string(",\"partition\":\"") +
                                 partition + "\""));
    }
    for (const char *preset : {"mnist", "cifar", "tiny-imagenet"}) {
        const std::string name = std::string("cnn-") + preset;
        add(name,
            familyLine("c-" + name, "cnn-infer", preset, "GoPIM", 1));
    }
    const char *const repairNames[] = {"spare", "ecc", "refresh"};
    for (size_t r = 0; r < 3; ++r) {
        const std::string name = std::string("fault-") + repairNames[r];
        add(name, gcnLine("c-" + name, "ddi", "GoPIM", 1, kRepairs[r]));
    }
    for (const char *engine : {"event", "replay"}) {
        const std::string name = std::string("retry-") + engine;
        add(name, gcnLine("c-" + name, "ddi", "GoPIM", 1,
                          std::string(",\"engine\":\"") + engine +
                              "\",\"retry_prob\":0.05,"
                              "\"write_fraction\":0.3"));
    }
    return out;
}

void
insertCanaries(std::vector<Line> *lines,
               const std::vector<Line> &canaryLines, size_t stride)
{
    for (size_t i = 0; i < canaryLines.size(); ++i) {
        const size_t at = std::min((i + 1) * stride + i, lines->size());
        lines->insert(lines->begin() + static_cast<std::ptrdiff_t>(at),
                      canaryLines[i]);
    }
}

} // namespace perfbench
