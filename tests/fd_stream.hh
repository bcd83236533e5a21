/**
 * @file
 * Live-client plumbing for session tests: a pipe, a std::streambuf
 * over a file descriptor (so processStream() can read a pipe and write
 * a pipe like a process on stdin/stdout), a string sink whose flush
 * touches its buffer, and reads with a deadline (so a session that
 * holds a response back fails the test instead of hanging it).
 */

#ifndef GOPIM_TESTS_FD_STREAM_HH
#define GOPIM_TESTS_FD_STREAM_HH

#include <cerrno>
#include <chrono>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

namespace gopim::testing_util {

/** write() all of `data` (net::writeAll sends, which a pipe refuses). */
inline bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
}

/** A pipe whose ends close on destruction. */
struct Pipe
{
    int readEnd = -1;
    int writeEnd = -1;

    Pipe()
    {
        // Close-on-exec: a worker spawned meanwhile must not hold the
        // write end open, or the reader never sees end of input.
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) == 0) {
            readEnd = fds[0];
            writeEnd = fds[1];
        }
    }
    ~Pipe()
    {
        closeRead();
        closeWrite();
    }
    Pipe(const Pipe &) = delete;
    Pipe &operator=(const Pipe &) = delete;

    void
    closeRead()
    {
        if (readEnd >= 0)
            ::close(readEnd);
        readEnd = -1;
    }
    void
    closeWrite()
    {
        if (writeEnd >= 0)
            ::close(writeEnd);
        writeEnd = -1;
    }
};

/**
 * Reads return whatever bytes have arrived (at least one); writes
 * reach the fd when the stream is flushed. The fd is not owned.
 */
class FdStreamBuf : public std::streambuf
{
  public:
    explicit FdStreamBuf(int fd) : fd_(fd)
    {
        setg(in_, in_, in_);
        setp(out_, out_ + sizeof(out_));
    }
    ~FdStreamBuf() override { sync(); }

  protected:
    int_type
    underflow() override
    {
        ssize_t n;
        do {
            n = ::read(fd_, in_, sizeof(in_));
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return traits_type::eof();
        setg(in_, in_, in_ + n);
        return traits_type::to_int_type(in_[0]);
    }

    int_type
    overflow(int_type ch) override
    {
        if (sync() != 0)
            return traits_type::eof();
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(ch);
            pbump(1);
        }
        return traits_type::not_eof(ch);
    }

    int
    sync() override
    {
        const bool ok = writeAll(
            fd_, std::string_view(pbase(), static_cast<size_t>(
                                                pptr() - pbase())));
        setp(out_, out_ + sizeof(out_));
        return ok ? 0 : -1;
    }

  private:
    int fd_;
    char in_[4096];
    char out_[4096];
};

/**
 * A string sink whose flush, like a file's, reads the buffered bytes.
 * A flush from any thread but the writer's is then a data race that
 * ThreadSanitizer reports.
 */
class FlushingStringBuf : public std::stringbuf
{
  public:
    size_t flushedBytes() const { return flushed_; }

  protected:
    int
    sync() override
    {
        flushed_ = str().size();
        return 0;
    }

  private:
    size_t flushed_ = 0;
};

/** True once `fd` has bytes (or EOF) to read within `timeoutMs`. */
inline bool
readableWithin(int fd, int timeoutMs)
{
    pollfd pfd{fd, POLLIN, 0};
    int rc;
    do {
        rc = ::poll(&pfd, 1, timeoutMs);
    } while (rc < 0 && errno == EINTR);
    return rc > 0;
}

/**
 * Read one '\n'-terminated line (returned without the newline) from
 * `fd` within `timeoutMs`. `carry` holds bytes read past the line for
 * the next call. False on timeout or end of stream.
 */
inline bool
readLineWithin(int fd, std::string *carry, std::string *line,
               int timeoutMs)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    while (true) {
        if (const size_t nl = carry->find('\n'); nl != std::string::npos) {
            *line = carry->substr(0, nl);
            carry->erase(0, nl + 1);
            return true;
        }
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (left <= 0 || !readableWithin(fd, static_cast<int>(left)))
            return false;
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            return false;
        carry->append(buf, static_cast<size_t>(n));
    }
}

} // namespace gopim::testing_util

#endif // GOPIM_TESTS_FD_STREAM_HH
