#include "bench.hh"

#include <algorithm>
#include <cerrno>
#include <fcntl.h>
#include <fstream>
#include <iostream>
#include <spawn.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/flags.hh"
#include "common/logging.hh"
#include "core/options.hh"

extern char **environ;

namespace perfbench {

void
Outcome::fail(const std::string &why)
{
    correct = false;
    ++failed;
    // Report the first few mismatches; one is enough to act on.
    if (failed <= 5)
        std::cerr << "perfbench: check failed: " << why << '\n';
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
interquartileMean(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t drop = values.size() / 4;
    double sum = 0.0;
    for (size_t i = drop; i < values.size() - drop; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * drop);
}

double
peakRssMiB(bool children)
{
    rusage usage{};
    getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

serve::Request
servingDefaults()
{
    gopim::Flags flags("perfbench", "serving defaults");
    gopim::core::addSimFlags(flags);
    const char *argv[] = {"perfbench"};
    flags.parse(1, argv);
    serve::Request defaults;
    defaults.sim = gopim::core::simContextFromFlags(flags);
    defaults.fault = gopim::core::faultConfigFromFlags(flags);
    defaults.microBatch = 64;
    defaults.epochs = 1;
    return defaults;
}

std::string
resultBytes(const std::string &response)
{
    static const std::string marker = ",\"result\":";
    if (response.rfind("{\"type\":\"result\"", 0) != 0)
        return "";
    const size_t at = response.find(marker);
    if (at == std::string::npos || response.back() != '}')
        return "";
    const size_t from = at + marker.size();
    return response.substr(from, response.size() - 1 - from);
}

std::string
errorCode(const std::string &response)
{
    static const std::string marker = "\"code\":\"";
    if (response.rfind("{\"type\":\"error\"", 0) != 0)
        return "";
    const size_t at = response.find(marker);
    if (at == std::string::npos)
        return "";
    const size_t from = at + marker.size();
    return response.substr(from, response.find('"', from) - from);
}

std::vector<std::pair<std::string, std::string>>
readGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        gopim::fatal("cannot read golden digests ", path);
    std::vector<std::pair<std::string, std::string>> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string id, digest;
        fields >> id >> digest;
        out.emplace_back(id, digest);
    }
    return out;
}

Child
spawnChild(const std::vector<std::string> &argv)
{
    int toChild[2], fromChild[2];
    if (pipe2(toChild, O_CLOEXEC) != 0 || pipe2(fromChild, O_CLOEXEC) != 0)
        gopim::fatal("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, toChild[0], 0);
    posix_spawn_file_actions_adddup2(&actions, fromChild[1], 1);
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    Child child;
    const int rc = posix_spawn(&child.pid, args[0], &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(toChild[0]);
    ::close(fromChild[1]);
    if (rc != 0)
        gopim::fatal("cannot spawn ", argv[0]);
    child.in = toChild[1];
    child.out = fromChild[0];
    return child;
}

void
closeInput(Child &child)
{
    if (child.in >= 0)
        ::close(child.in);
    child.in = -1;
}

int
reapChild(Child &child)
{
    closeInput(child);
    if (child.out >= 0)
        ::close(child.out);
    child.out = -1;
    if (child.pid <= 0)
        return -1;
    int status = 0;
    while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    child.pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace perfbench
