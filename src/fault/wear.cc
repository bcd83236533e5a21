#include "fault/wear.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gopim::fault {

namespace {

/**
 * Fraction of a row population worn out when each row receives
 * `writesPerEpoch * epochs` writes against `endurance`. Modeled as a
 * deterministic ramp: rows reach their rating at 1.0x and the whole
 * population is dead by 2.0x (cell-to-cell endurance spread).
 */
double
wornShare(double writesPerEpoch, uint32_t epochs, double endurance)
{
    GOPIM_ASSERT(endurance > 0.0, "endurance must be positive");
    const double consumed =
        writesPerEpoch * static_cast<double>(epochs) / endurance;
    return std::clamp(consumed - 1.0, 0.0, 1.0);
}

} // namespace

WearState
computeWear(const mapping::UpdateLoad &load, uint32_t coldPeriod,
            uint32_t epochs, double writeEndurance)
{
    GOPIM_ASSERT(load.numVertices > 0, "wear of an empty mapping");
    WearState wear;
    wear.groupWritesPerEpoch = load.groupWrites;

    double total = 0.0;
    for (const double writes : wear.groupWritesPerEpoch) {
        total += writes;
        wear.peakGroupWritesPerEpoch =
            std::max(wear.peakGroupWritesPerEpoch, writes);
    }
    const auto numRows = static_cast<double>(load.numVertices);
    wear.meanWritesPerRowPerEpoch = total / numRows;

    // Hot rows (important, or every row without selective updating)
    // are rewritten once per epoch; cold rows once per cold period.
    const double hotShare =
        static_cast<double>(load.hotVertices) / numRows;
    const double coldRate =
        1.0 / static_cast<double>(std::max(1u, coldPeriod));

    wear.lifetimeFraction = static_cast<double>(epochs) /
                            writeEndurance *
                            (load.hotVertices > 0 ? 1.0 : coldRate);
    wear.wornRowFraction =
        hotShare * wornShare(1.0, epochs, writeEndurance) +
        (1.0 - hotShare) * wornShare(coldRate, epochs, writeEndurance);
    return wear;
}

} // namespace gopim::fault
