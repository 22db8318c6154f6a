#include "shard.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/error.hh"

namespace rsr::harness
{

ShardClaimTable::ShardClaimTable(const std::string &path,
                                 std::uint64_t num_jobs)
    : path(path), numJobs(num_jobs)
{
    fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
        rsr_throw_io("cannot open claim table ", path, ": ",
                     std::strerror(errno));
    // One byte of lock range per job. The content is irrelevant — only
    // the byte offsets matter — but sizing the file makes the table
    // inspectable and keeps the ranges inside the file.
    if (::ftruncate(fd, static_cast<off_t>(num_jobs ? num_jobs : 1)) != 0)
        rsr_throw_io("cannot size claim table ", path, ": ",
                     std::strerror(errno));
}

ShardClaimTable::~ShardClaimTable()
{
    if (fd >= 0)
        ::close(fd); // releases every claim this process held
}

bool
ShardClaimTable::tryClaim(std::uint64_t job_id)
{
    struct flock lk;
    std::memset(&lk, 0, sizeof(lk));
    lk.l_type = F_WRLCK;
    lk.l_whence = SEEK_SET;
    lk.l_start = static_cast<off_t>(job_id);
    lk.l_len = 1;
    if (::fcntl(fd, F_SETLK, &lk) == 0)
        return true;
    if (errno == EACCES || errno == EAGAIN)
        return false; // a live sibling owns this job
    rsr_throw_io("claim table lock failed on ", path, " job ", job_id,
                 ": ", std::strerror(errno));
}

std::string
ShardClaimTable::claimPath(const std::string &out_dir)
{
    return out_dir + "/claims.tbl";
}

} // namespace rsr::harness
