#include "journal.hh"

#include <map>

#include "harness/json.hh"
#include "util/checksum.hh"
#include "util/error.hh"

namespace rsr::serve
{

const char *
requestStatusName(RequestStatus status)
{
    switch (status) {
      case RequestStatus::Queued:
        return "queued";
      case RequestStatus::Done:
        return "done";
      case RequestStatus::Failed:
        return "failed";
    }
    return "unknown";
}

RequestStatus
parseRequestStatus(const std::string &name)
{
    for (RequestStatus s : {RequestStatus::Queued, RequestStatus::Done,
                            RequestStatus::Failed})
        if (name == requestStatusName(s))
            return s;
    rsr_throw_corrupt("unknown journal status '", name, "'");
}

JournalState
loadJournal(const std::string &path)
{
    JournalState state;
    if (!fileExists(path))
        return state;

    // Latest record wins per id; ordered map keeps the backlog sorted.
    std::map<std::uint64_t, std::pair<RequestStatus, SimRequest>> latest;
    for (const std::string &line : readJournalLines(path)) {
        try {
            const auto obj = harness::parseJsonObject(line);
            const std::uint64_t id = harness::jsonU64(obj, "id");
            const auto status_it = obj.find("status");
            if (status_it == obj.end())
                rsr_throw_corrupt("journal line missing status");
            const RequestStatus status =
                parseRequestStatus(status_it->second);
            SimRequest request = simRequestFromJson(line);
            // Verify the stored hash: a bit-flipped-but-parsable line
            // must not resurrect a different request.
            const auto hash_it = obj.find("request_hash");
            if (hash_it == obj.end() ||
                parseChecksumHex(hash_it->second) !=
                    request.requestHash())
                rsr_throw_corrupt("journal line hash mismatch");
            latest[id] = {status, std::move(request)};
            if (id + 1 > state.nextId)
                state.nextId = id + 1;
        } catch (const SimError &) {
            // Torn or damaged line from a crash mid-append: drop it.
            ++state.droppedLines;
        }
    }
    for (auto &[id, rec] : latest)
        if (rec.first == RequestStatus::Queued)
            state.backlog.emplace_back(id, std::move(rec.second));
    return state;
}

void
RequestJournal::append(std::uint64_t id, RequestStatus status,
                       const SimRequest &request)
{
    // Rebuild the request JSON with the journal bookkeeping fields
    // appended; simRequestFromJson ignores the extras when loading.
    std::string line = simRequestJson(request);
    line.pop_back(); // drop the closing '}'
    line += ",\"id\":" + std::to_string(id);
    line += ",\"status\":\"" + std::string(requestStatusName(status)) +
            "\"";
    line += ",\"request_hash\":\"" +
            checksumHex(request.requestHash()) + "\"}";
    journal_.append(line);
}

} // namespace rsr::serve
