/**
 * @file
 * Crash-safe file I/O used by every artifact writer: whole-file reads
 * with fault-injection hooks, atomic write-then-rename so a crash or
 * SIGKILL mid-write never leaves a torn artifact — readers either see the
 * complete old file or the complete new one — and the durable append-only
 * line journal behind the campaign manifest and the serve request
 * journal. All failures throw the SimError hierarchy (IoError for
 * environmental failures, UserError for missing paths).
 */

#ifndef RSR_UTIL_FILEIO_HH
#define RSR_UTIL_FILEIO_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rsr
{

/** Does @p path exist (as any kind of file)? */
bool fileExists(const std::string &path);

/**
 * Read the whole of @p path. Throws UserError if it cannot be opened,
 * IoError on a (possibly injected) read failure. An armed fault injector
 * may also bit-flip the returned bytes to emulate media corruption.
 */
std::vector<std::uint8_t> readFileBytes(const std::string &path);

/**
 * Atomically replace @p path with @p n bytes of @p data: write a
 * temporary sibling, flush+fsync it, then rename() over the target.
 * Throws IoError on any failure (the temporary is removed).
 */
void atomicWriteFile(const std::string &path, const void *data,
                     std::size_t n);

inline void
atomicWriteFile(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    atomicWriteFile(path, bytes.data(), bytes.size());
}

inline void
atomicWriteFile(const std::string &path, const std::string &text)
{
    atomicWriteFile(path, text.data(), text.size());
}

/** Create directory @p path (and parents). Throws IoError on failure. */
void makeDirs(const std::string &path);

/**
 * A durable append-only line journal. Every append is one write() of the
 * line plus '\n' on an O_APPEND descriptor, so concurrent appenders —
 * threads or processes — interleave whole lines, never bytes, and a
 * crash or SIGKILL tears at most the final line. Each append is fsynced
 * before it returns. Appends bypass the fault-injection hooks.
 */
class LineJournal
{
  public:
    enum class OpenMode
    {
        /** Truncate (or create) the file. */
        Fresh,
        /**
         * Reopen (or create) the file for one writer, first truncating
         * a torn tail back to the last '\n' so the next line starts
         * clean. The repair must not race another live writer.
         */
        Resume,
        /** Append beside other live writers: no repair. */
        Shared,
    };

    LineJournal(const std::string &path, OpenMode mode);
    ~LineJournal();

    LineJournal(const LineJournal &) = delete;
    LineJournal &operator=(const LineJournal &) = delete;

    /** Durably append @p line (without its '\n'). Thread-safe; throws
     *  IoError if the write or the fsync fails. */
    void append(const std::string &line);

  private:
    std::mutex mutex_;
    int fd_ = -1;
    std::string path_;
};

/**
 * The non-empty lines of @p path. Like LineJournal::append, the read
 * bypasses the fault-injection hooks: journal bookkeeping stays
 * trustworthy while faults are injected into the work it records. A
 * torn final line is returned like any other; loaders drop what fails
 * to parse.
 */
std::vector<std::string> readJournalLines(const std::string &path);

} // namespace rsr

#endif // RSR_UTIL_FILEIO_HH
