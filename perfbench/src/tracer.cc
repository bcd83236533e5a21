#include "tracer.hh"

#include <cstdio>
#include <fstream>

#include "bench.hh"

namespace perfbench {

namespace {

double
nowUs()
{
    return nowS() * 1e6;
}

} // namespace

int32_t
Tracer::begin(const char *name, uint32_t request)
{
    spans_.push_back({name, nowUs(), 0.0, open_, request});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
}

void
Tracer::end(int32_t index)
{
    Span &span = spans_[static_cast<size_t>(index)];
    span.endUs = nowUs();
    open_ = span.parent;
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endUs - spans_[i].startUs;
    // Children never outlive their parent (Scope nesting), so
    // subtracting each child's duration from its parent is exact.
    for (const Span &span : spans_)
        if (span.parent >= 0)
            self[static_cast<size_t>(span.parent)] -=
                span.endUs - span.startUs;
    return self;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    const std::vector<double> self = selfTimes();
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        Totals &t = out[spans_[i].name];
        ++t.calls;
        t.selfUs += self[i];
    }
    return out;
}

double
Tracer::layerSelfUs() const
{
    const std::vector<double> self = selfTimes();
    double sum = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            sum += self[i];
    return sum;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().startUs;
    out << "{\"traceEvents\":[\n";
    char buf[320];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"span\":%zu,\"parent\":%d,\"request\":%u}}\n",
                      i == 0 ? "" : ",", s.name, s.startUs - origin,
                      s.endUs - s.startUs, i, s.parent, s.request);
        out << buf;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
