/**
 * @file
 * A generated input stream for line-cap tests: `fill` bytes of 'x', a
 * newline, then `tail`, produced 64 KiB at a time so a test can feed
 * a line past the 64 MiB frame cap without holding it in memory.
 */

#ifndef GOPIM_TESTS_OVERLONG_LINE_HH
#define GOPIM_TESTS_OVERLONG_LINE_HH

#include <algorithm>
#include <cstddef>
#include <streambuf>
#include <string>

namespace gopim::testing_util {

class OverlongLineBuf : public std::streambuf
{
  public:
    /**
     * `watched`, when set, is a string whose capacity is sampled at
     * every refill (the reader's line buffer).
     */
    OverlongLineBuf(size_t fill, const std::string &tail,
                    const std::string *watched = nullptr)
        : fill_(fill), chunk_(size_t{1} << 16, 'x'), tail_("\n" + tail),
          watched_(watched)
    {
    }

    /** Largest capacity `watched` had at any refill. */
    size_t maxWatchedCapacity() const { return maxCapacity_; }

  protected:
    int_type
    underflow() override
    {
        if (watched_)
            maxCapacity_ = std::max(maxCapacity_, watched_->capacity());
        if (fill_ > 0) {
            const size_t n = std::min(fill_, chunk_.size());
            fill_ -= n;
            setg(chunk_.data(), chunk_.data(), chunk_.data() + n);
        } else if (!tailSent_) {
            tailSent_ = true;
            setg(tail_.data(), tail_.data(), tail_.data() + tail_.size());
        } else {
            return traits_type::eof();
        }
        return traits_type::to_int_type(*gptr());
    }

  private:
    size_t fill_;
    std::string chunk_;
    std::string tail_;
    bool tailSent_ = false;
    const std::string *watched_;
    size_t maxCapacity_ = 0;
};

} // namespace gopim::testing_util

#endif // GOPIM_TESTS_OVERLONG_LINE_HH
