/**
 * @file
 * In-memory span recorder for the traced run. A span is one call
 * from the benchmark into a program layer: name, start, end, parent
 * span and request id. Spans stay in memory until the run ends, then
 * go out as Chrome trace JSON and as per-name self times (duration
 * minus the part covered by child spans).
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        int32_t parent;
        uint32_t request;
    };

    /** Per-name totals over the recorded spans. */
    struct Totals
    {
        uint64_t calls = 0;
        double selfUs = 0.0;
    };

    /** Open a span under the innermost open one. */
    int32_t begin(const char *name, uint32_t request);
    void end(int32_t index);

    /** Self time per span name. */
    std::map<std::string, Totals> totals() const;

    /**
     * Sum of self times of every span that is not a root (roots are
     * the benchmark's own per-op bookkeeping).
     */
    double layerSelfUs() const;

    /** Write the spans as Chrome trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

    size_t size() const { return spans_.size(); }

  private:
    std::vector<double> selfTimes() const;

    std::vector<Span> spans_;
    int32_t open_ = -1;
};

/** RAII span; a null tracer makes it a no-op (the untraced pass). */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, uint32_t request)
        : tracer_(tracer),
          index_(tracer ? tracer->begin(name, request) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    int32_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
