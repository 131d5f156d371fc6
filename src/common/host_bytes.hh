/**
 * @file
 * Host-memory accounting helpers: deterministic byte counts of standard
 * containers, for the hostBytes() accessors that tests bound exactly.
 */

#ifndef OVERLAYSIM_COMMON_HOST_BYTES_HH
#define OVERLAYSIM_COMMON_HOST_BYTES_HH

#include <cstdint>

namespace ovl
{

/**
 * Bytes of a node-based hash map: one node (next pointer plus value)
 * per element and one pointer per bucket. Allocator overhead is not
 * counted.
 */
template <class Map>
std::uint64_t
hashMapHostBytes(const Map &map)
{
    return map.size() * (sizeof(void *) + sizeof(typename Map::value_type)) +
           map.bucket_count() * sizeof(void *);
}

} // namespace ovl

#endif // OVERLAYSIM_COMMON_HOST_BYTES_HH
