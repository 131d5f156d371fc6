#include "snapshot.hh"

#include <cstdio>

#include "sim/profile.hh"

namespace ovl::snapshot
{

void
writeSnapshotFile(const std::string &path,
                  const std::vector<std::uint8_t> &payload)
{
    OVL_PROF_SCOPE(SnapshotIo);
    Writer header;
    header.u64(kFileMagic);
    header.u32(kFormatVersion);
    header.u64(payload.size());

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw SnapshotError("cannot open '" + path + "' for writing");
    bool ok = std::fwrite(header.buffer().data(), 1, header.buffer().size(),
                          f) == header.buffer().size() &&
              std::fwrite(payload.data(), 1, payload.size(), f) ==
                  payload.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        throw SnapshotError("short write to '" + path + "'");
}

std::vector<std::uint8_t>
readSnapshotFile(const std::string &path)
{
    OVL_PROF_SCOPE(SnapshotIo);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw SnapshotError("cannot open '" + path + "'");

    std::vector<std::uint8_t> raw;
    std::uint8_t chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        raw.insert(raw.end(), chunk, chunk + got);
    bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        throw SnapshotError("read error on '" + path + "'");

    Reader r(raw);
    if (raw.size() < 8 + 4 + 8)
        throw SnapshotError("'" + path + "' is too short to be a snapshot (" +
                            std::to_string(raw.size()) + " bytes)");
    std::uint64_t magic = 0;
    r.u64(magic);
    if (magic != kFileMagic) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      (unsigned long long)magic);
        throw SnapshotError("'" + path + "' is not a snapshot file (magic " +
                            buf + ")");
    }
    std::uint32_t version = 0;
    r.u32(version);
    if (version != kFormatVersion) {
        throw SnapshotError(
            "'" + path + "' has format version " + std::to_string(version) +
            "; this build reads version " + std::to_string(kFormatVersion));
    }
    std::uint64_t len = 0;
    r.u64(len);
    if (len != raw.size() - (8 + 4 + 8)) {
        throw SnapshotError("'" + path + "' payload length mismatch: header "
                            "says " + std::to_string(len) + ", file holds " +
                            std::to_string(raw.size() - (8 + 4 + 8)));
    }
    return std::vector<std::uint8_t>(raw.begin() + (8 + 4 + 8), raw.end());
}

} // namespace ovl::snapshot
