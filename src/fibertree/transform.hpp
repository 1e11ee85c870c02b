/**
 * @file
 * Content-preserving fibertree transformations (paper §2.1, §3.2):
 * rank swizzling, rank flattening, and rank partitioning (uniform
 * shape and uniform occupancy). None of these change the set of leaf
 * values — only the coordinate system used to reach them.
 *
 * Every transform is one O(nnz) pass. A swizzle gathers the leaves
 * once into flat coordinate rows and builds the output tree from them
 * in sorted order. Flatten and split restructure fibers at one level;
 * their rvalue overloads do it in place on a tensor the caller gives
 * up, while the const& overloads deep-copy the tree first, so a
 * borrowed input is never mutated. None keeps shared scratch, so
 * concurrent calls on distinct outputs are safe.
 */
#pragma once

#include <string>
#include <vector>

#include "fibertree/tensor.hpp"

namespace teaal::storage
{
class PackedTensor;
} // namespace teaal::storage

namespace teaal::ft
{

/**
 * Reorder the levels of the fibertree to @p new_order, which must be a
 * permutation of the tensor's rank ids (paper Figure 4). Empty
 * subfibers are dropped; zero-valued leaves are kept.
 */
Tensor swizzle(const Tensor& t, const std::vector<std::string>& new_order);

/**
 * Swizzle a packed tensor straight off its rank buffers: the result
 * is the pointer tree `swizzle(t.toTensor(), new_order)` would build,
 * without materializing the unswizzled tree first.
 */
Tensor swizzle(const storage::PackedTensor& t,
               const std::vector<std::string>& new_order);

/**
 * Flatten adjacent ranks @p upper_id (directly above) and @p lower_id
 * into one rank whose packed coordinate is upper*lowerShape + lower;
 * packing preserves lexicographic tuple order (paper Figure 2).
 * The combined rank is named upper_id + lower_id.
 */
Tensor flattenRanks(const Tensor& t, const std::string& upper_id,
                    const std::string& lower_id);
Tensor flattenRanks(Tensor&& t, const std::string& upper_id,
                    const std::string& lower_id);

/**
 * Split rank @p rank_id at coordinate multiples of @p tile (uniform
 * shape-based partitioning, §2.3). Upper-rank coordinates are the first
 * legal coordinate of the fiber below (i.e. c - c % tile).
 */
Tensor splitRankByShape(const Tensor& t, const std::string& rank_id,
                        Coord tile, const std::string& upper_name,
                        const std::string& lower_name);
Tensor splitRankByShape(Tensor&& t, const std::string& rank_id,
                        Coord tile, const std::string& upper_name,
                        const std::string& lower_name);

/**
 * Split rank @p rank_id so every fiber is divided into chunks of
 * @p chunk elements (uniform occupancy-based partitioning, §3.2.1).
 * Boundaries are chosen per fiber; upper-rank coordinates are each
 * chunk's first coordinate.
 */
Tensor splitRankByOccupancy(const Tensor& t, const std::string& rank_id,
                            std::size_t chunk,
                            const std::string& upper_name,
                            const std::string& lower_name);
Tensor splitRankByOccupancy(Tensor&& t, const std::string& rank_id,
                            std::size_t chunk,
                            const std::string& upper_name,
                            const std::string& lower_name);

/**
 * Occupancy boundaries of one fiber: the coordinates starting each
 * chunk of @p chunk elements. Leader tensors export these for their
 * followers (leader-follower paradigm, §3.2.1).
 */
std::vector<Coord> occupancyBoundaries(const Fiber& fiber,
                                       std::size_t chunk);

} // namespace teaal::ft
