/**
 * @file
 * Endurance wear model driven by the training schedule's *actual*
 * update traffic: per-row-group write counters derived from the
 * selective-update policy (mapping/selective.hh), accumulated over
 * the run's epochs against the chip's per-cell write endurance.
 *
 * This is where ISU pays a reliability dividend the paper never
 * measures: theta < 1 means only the important fraction of rows is
 * rewritten every epoch while cold rows are written once per cold
 * period, so mean per-row wear drops to
 * theta + (1 - theta) / coldPeriod — a directly measurable lifetime
 * extension on top of the timing win.
 */

#ifndef GOPIM_FAULT_WEAR_HH
#define GOPIM_FAULT_WEAR_HH

#include <cstdint>
#include <vector>

#include "mapping/selective.hh"

namespace gopim::fault {

/** Accumulated wear at the end of a run. */
struct WearState
{
    /** Expected row writes per epoch, averaged over all rows. */
    double meanWritesPerRowPerEpoch = 0.0;
    /** Expected row writes per epoch in the most-written group. */
    double peakGroupWritesPerEpoch = 0.0;
    /**
     * Endurance consumed by the hottest rows over the whole run
     * (epochs x hottest per-row rate / endurance); > 1 means those
     * rows outlived their rating before the run ended.
     */
    double lifetimeFraction = 0.0;
    /** Fraction of rows driven past their endurance by run end. */
    double wornRowFraction = 0.0;
    /** Per-group expected row writes per epoch (remap weights). */
    std::vector<double> groupWritesPerEpoch;
};

/**
 * Wear from the mapped update load: important rows are rewritten
 * every epoch, cold rows once per cold period (load.groupWrites holds
 * the per-group totals). `writeEndurance` is the per-cell lifetime
 * write rating.
 */
WearState computeWear(const mapping::UpdateLoad &load,
                      uint32_t coldPeriod, uint32_t epochs,
                      double writeEndurance);

} // namespace gopim::fault

#endif // GOPIM_FAULT_WEAR_HH
