#include "fileio.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "error.hh"
#include "fault.hh"

namespace rsr
{

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

namespace
{

/** The whole of @p path, past the fault hooks. */
std::vector<std::uint8_t>
readRaw(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        rsr_throw_user("cannot open ", path, ": ", std::strerror(errno));

    std::vector<std::uint8_t> bytes;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        rsr_throw_io("read error on ", path);
    return bytes;
}

} // namespace

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    if (FaultInjector::global().shouldFailIo("read:" + path))
        rsr_throw_io("injected I/O fault reading ", path);
    auto bytes = readRaw(path);
    FaultInjector::global().maybeCorrupt("corrupt:" + path, bytes);
    return bytes;
}

void
atomicWriteFile(const std::string &path, const void *data, std::size_t n)
{
    if (FaultInjector::global().shouldFailIo("write:" + path))
        rsr_throw_io("injected I/O fault writing ", path);

    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        rsr_throw_io("cannot open ", tmp, " for writing: ",
                     std::strerror(errno));

    bool ok = n == 0 || std::fwrite(data, 1, n, f) == n;
    ok = std::fflush(f) == 0 && ok;
    ok = ::fsync(::fileno(f)) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        rsr_throw_io("cannot write ", path, ": ", std::strerror(errno));
    }
}

void
makeDirs(const std::string &path)
{
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial.push_back(path[i]);
            continue;
        }
        if (!partial.empty() &&
            ::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST)
            rsr_throw_io("cannot create directory ", partial, ": ",
                         std::strerror(errno));
        if (i < path.size())
            partial.push_back('/');
    }
}

LineJournal::LineJournal(const std::string &path, OpenMode mode)
    : path_(path)
{
    const int trunc = mode == OpenMode::Fresh ? O_TRUNC : 0;
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | trunc, 0644);
    if (fd_ < 0)
        rsr_throw_io("cannot open journal ", path, ": ",
                     std::strerror(errno));
    if (mode != OpenMode::Resume)
        return;

    // Truncate a torn tail back to the end of the last complete line.
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    off_t keep = size;
    bool ok = size >= 0;
    char buf[4096];
    while (ok && keep > 0) {
        const off_t from = std::max<off_t>(keep - off_t{sizeof(buf)}, 0);
        const auto n = static_cast<std::size_t>(keep - from);
        ok = ::pread(fd_, buf, n, from) == static_cast<ssize_t>(n);
        const void *nl = ok ? ::memrchr(buf, '\n', n) : nullptr;
        if (nl) {
            keep = from + (static_cast<const char *>(nl) - buf) + 1;
            break;
        }
        keep = from;
    }
    if (!ok || (keep != size && ::ftruncate(fd_, keep) != 0)) {
        ::close(fd_);
        rsr_throw_io("cannot repair journal ", path, ": ",
                     std::strerror(errno));
    }
}

LineJournal::~LineJournal()
{
    ::close(fd_);
}

void
LineJournal::append(const std::string &line)
{
    const std::string out = line + "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    if (::write(fd_, out.data(), out.size()) !=
            static_cast<ssize_t>(out.size()) ||
        ::fsync(fd_) != 0)
        rsr_throw_io("cannot append to journal ", path_, ": ",
                     std::strerror(errno));
}

std::vector<std::string>
readJournalLines(const std::string &path)
{
    const auto bytes = readRaw(path);
    std::vector<std::string> lines;
    auto begin = bytes.begin();
    while (begin != bytes.end()) {
        const auto end = std::find(begin, bytes.end(), '\n');
        if (end != begin)
            lines.emplace_back(begin, end);
        begin = end == bytes.end() ? end : end + 1;
    }
    return lines;
}

} // namespace rsr
