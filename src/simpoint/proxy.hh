/**
 * @file
 * BBV-based proxy scores for estimator cluster selection
 * (core/estimator.hh ProxyKind::BbvDistance): each candidate cluster's
 * basic-block vector is frequency-normalized, and its L2 distance to the
 * centroid of all candidates becomes the cluster's proxy score. Near the
 * centroid means code-path-typical; far means an outlier phase — either
 * way the *ordering* is what ranked-set sets and two-phase strata
 * consume, exactly as SimPoint uses BBV distance to pick representative
 * intervals. One functional pass, no timing model.
 */

#ifndef RSR_SIMPOINT_PROXY_HH
#define RSR_SIMPOINT_PROXY_HH

#include <vector>

#include "core/regimen.hh"
#include "func/program.hh"
#include "util/deadline.hh"

namespace rsr::simpoint
{

/**
 * Proxy score per candidate cluster: L2 distance between the cluster's
 * frequency-normalized basic-block vector and the centroid of all
 * candidate vectors. The vectors come from one profileBbv() pass over
 * the candidates (simpoint/bbv.hh), whose deterministic block ids make
 * the scores bit-identical across runs. Candidates must be sorted and
 * non-overlapping. Polls @p deadline like the skip loop.
 */
std::vector<double>
bbvCentroidDistance(const func::Program &program,
                    const std::vector<core::Cluster> &candidates,
                    const Deadline *deadline = nullptr);

} // namespace rsr::simpoint

#endif // RSR_SIMPOINT_PROXY_HH
