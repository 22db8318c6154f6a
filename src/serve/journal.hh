/**
 * @file
 * The serve daemon's request journal: admitted simulation requests
 * written through the same durable LineJournal (util/fileio.hh) as the
 * campaign manifest. Every admitted cache-miss request is journaled
 * `queued` before execution and `done`/`failed` after — so SIGTERM
 * (graceful drain) or even SIGKILL leaves a journal from which a
 * restarted daemon resumes: entries whose latest status is still
 * `queued` are re-executed into the cache at startup. Torn trailing
 * lines are dropped on load (the request simply reruns — at-least-once
 * semantics).
 */

#ifndef RSR_SERVE_JOURNAL_HH
#define RSR_SERVE_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "util/fileio.hh"

namespace rsr::serve
{

/** Lifecycle of one journaled request. */
enum class RequestStatus
{
    Queued,
    Done,
    Failed,
};

const char *requestStatusName(RequestStatus status);

/** Inverse of requestStatusName(); throws CorruptInputError. */
RequestStatus parseRequestStatus(const std::string &name);

/** Everything recovered from a journal on restart. */
struct JournalState
{
    /** Requests whose latest status is still Queued, in id order. */
    std::vector<std::pair<std::uint64_t, SimRequest>> backlog;
    /** One past the highest id seen (the next id to assign). */
    std::uint64_t nextId = 0;
    /** Unparsable (torn) lines that were dropped. */
    std::uint64_t droppedLines = 0;
};

/**
 * Load a journal file (absent file = empty state). Torn lines are
 * dropped and counted; a `done`/`failed` line retires its id from the
 * backlog.
 */
JournalState loadJournal(const std::string &path);

/** Writes request status lines to a journal. Thread-safe. */
class RequestJournal
{
  public:
    /**
     * Open @p path for appending, creating it if missing and truncating
     * a torn trailing line first (crash mid-append).
     */
    explicit RequestJournal(const std::string &path)
        : journal_(path, LineJournal::OpenMode::Resume)
    {
    }

    /** Durably append one status line for request @p id. */
    void append(std::uint64_t id, RequestStatus status,
                const SimRequest &request);

  private:
    LineJournal journal_;
};

} // namespace rsr::serve

#endif // RSR_SERVE_JOURNAL_HH
