/**
 * @file
 * The ordered-window pump behind every streaming session: the serve
 * stdin loop, the worker's framed connections, and the router's
 * client sessions. The calling thread reads and submits requests; a
 * writer thread emits their responses strictly in submission order,
 * each as soon as it is finished — never waiting for the next input
 * line, so a client that waits for each response before sending its
 * next request is served.
 */

#ifndef GOPIM_COMMON_ORDERED_PUMP_HH
#define GOPIM_COMMON_ORDERED_PUMP_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

namespace gopim {

/**
 * Items submitted but not yet emitted. A full window stops the reader,
 * so a client that never reads its responses cannot grow the process
 * without bound.
 */
inline constexpr size_t kPumpWindow = 1024;

/**
 * Run one session to the end of its input.
 *
 *  - `next(Item *)` (calling thread) produces the next item in input
 *    order; false ends the input.
 *  - `ready(const Item &)` (writer thread) is true when `emit` would
 *    not block.
 *  - `emit(Item &)` (writer thread) finishes the item, blocking if
 *    needed, and writes its response.
 *  - `flush()` (writer thread) pushes written responses out.
 *
 * The writer flushes only just before it would block, on an unready
 * front or an empty window: a waiting client gets every response at
 * once, and a batch run does not pay one flush per line. Returns after
 * the last item is emitted and flushed.
 */
template <typename Item, typename Next, typename Ready, typename Emit,
          typename Flush>
void
pumpInOrder(Next &&next, Ready &&ready, Emit &&emit, Flush &&flush)
{
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Item> window;
    bool eof = false;

    std::thread writer([&] {
        bool unflushed = false;
        std::unique_lock<std::mutex> lock(mutex);
        while (true) {
            if (window.empty() && unflushed) {
                lock.unlock();
                flush();
                unflushed = false;
                lock.lock();
                continue; // the reader may have pushed meanwhile
            }
            cv.wait(lock, [&] { return eof || !window.empty(); });
            if (window.empty())
                return; // eof, drained and flushed
            Item item = std::move(window.front());
            window.pop_front();
            cv.notify_all(); // under the lock: no lost wake-up
            lock.unlock();
            if (unflushed && !ready(item)) {
                flush();
                unflushed = false;
            }
            emit(item);
            unflushed = true;
            lock.lock();
        }
    });

    for (Item item; next(&item);) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return window.size() < kPumpWindow; });
        window.push_back(std::move(item));
        cv.notify_all(); // under the lock: no lost wake-up
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        eof = true;
        cv.notify_all(); // under the lock: no lost wake-up
    }
    writer.join();
}

/**
 * Unties `in` from its output stream for one session, restoring the
 * tie on scope exit. A tied read flushes that stream (std::cin
 * flushes std::cout) from the reading thread while the pump's writer
 * writes to it.
 */
struct ScopedUntie
{
    explicit ScopedUntie(std::istream &in) : in(in), tied(in.tie(nullptr))
    {
    }
    ~ScopedUntie() { in.tie(tied); }
    ScopedUntie(const ScopedUntie &) = delete;
    ScopedUntie &operator=(const ScopedUntie &) = delete;

    std::istream &in;
    std::ostream *const tied;
};

} // namespace gopim

#endif // GOPIM_COMMON_ORDERED_PUMP_HH
