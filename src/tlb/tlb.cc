#include "tlb.hh"

#include <limits>
#include <vector>

#include "sim/profile.hh"
#include "sim/snapshot.hh"
#include "sim/trace.hh"

namespace ovl
{

Tlb::Tlb(std::string name, TlbParams params)
    : SimObject(std::move(name)), params_(params),
      table_(params.entries, params.associativity),
      hits_(&statGroup(), "hits", "TLB hits"),
      misses_(&statGroup(), "misses", "TLB misses"),
      coherenceUpdates_(&statGroup(), "coherenceUpdates",
                        "OBitVector bits updated by coherence messages")
{
}

void
Tlb::invalidate(Asid asid, Addr vpn)
{
    if (table_.erase(keyOf(asid, vpn)) != nullptr)
        noteErased(asid);
}

void
Tlb::invalidateAsid(Asid asid)
{
    table_.eraseIf([&](std::uint64_t key) { return asidOf(key) == asid; });
    if (asid < asidEntries_.size())
        asidEntries_[asid] = 0;
}

void
Tlb::flush()
{
    table_.clear();
    asidEntries_.assign(asidEntries_.size(), 0);
}

bool
Tlb::updateObvBit(Asid asid, Addr vpn, unsigned line_in_page, bool value)
{
    if (!holdsAsid(asid))
        return false;
    TlbEntryData *data = table_.find(keyOf(asid, vpn));
    if (data == nullptr)
        return false;
    data->obv.assign(line_in_page, value);
    ++coherenceUpdates_;
    return true;
}

TwoLevelTlb::TwoLevelTlb(std::string name, TlbHierarchyParams params)
    : SimObject(std::move(name)), params_(params),
      l1_(this->name() + ".l1", params.l1),
      l2_(this->name() + ".l2", params.l2)
{
}

TlbEntryData *
TwoLevelTlb::fill(Asid asid, Addr vpn, const TlbEntryData &data)
{
    l2_.insert(asid, vpn, data);
    return l1_.insertAndLookup(asid, vpn, data);
}

void
TwoLevelTlb::invalidate(Asid asid, Addr vpn, Tick when)
{
    if (trace::active()) {
        trace::instant("tlb", "tlb_shootdown", when,
                       {{"asid", asid}, {"vpn", vpn}});
    }
    l1_.invalidate(asid, vpn);
    l2_.invalidate(asid, vpn);
}

void
TwoLevelTlb::invalidateAsid(Asid asid, Tick when)
{
    OVL_PROF_SCOPE(TlbMaint);
    if (trace::active()) {
        trace::instant("tlb", "tlb_shootdown_asid", when,
                       {{"asid", asid}});
    }
    l1_.invalidateAsid(asid);
    l2_.invalidateAsid(asid);
}

void
TwoLevelTlb::flush()
{
    l1_.flush();
    l2_.flush();
}

bool
TwoLevelTlb::updateObvBit(Asid asid, Addr vpn, unsigned line_in_page,
                          bool value)
{
    // Each level's holdsAsid() filter makes this a cheap no-op on TLBs
    // that never cached the process — the common case for the other
    // cores' TLBs during an ORE broadcast (§4.3.3).
    bool upper = l1_.updateObvBit(asid, vpn, line_in_page, value);
    bool lower = l2_.updateObvBit(asid, vpn, line_in_page, value);
    return upper || lower;
}

template <class Self, class Ar>
void
Tlb::io(Self &self, Ar &ar)
{
    // Laid out like a cache's lines (DESIGN.md §11.2): the table's way
    // record, with the resident ways' flags as 4 bits and their ppn and
    // OBitVector as varints. Empty ways restore fresh, and the per-ASID
    // entry counts are recounted from the keys.
    ar.section("TLB ", [&] {
        auto &table = self.table_;
        auto fields = [&](const std::vector<std::uint32_t> &resident) {
            const std::size_t n = resident.size();
            if constexpr (Ar::kLoading) {
                self.asidEntries_.clear();
                for (std::uint32_t i : resident)
                    self.noteInserted(asidOf(table.key(i)));
                ar.packed(n, 4, [&](std::size_t k, std::uint8_t bits) {
                    TlbEntryData &d = table.payload(resident[k]);
                    d.writable = (bits & 1) != 0;
                    d.cow = (bits & 2) != 0;
                    d.overlayEnabled = (bits & 4) != 0;
                    d.metadataMode = (bits & 8) != 0;
                });
                std::vector<std::uint64_t> ppns(n), obvs(n);
                ar.varints(n, ppns.data());
                ar.varints(n, obvs.data());
                for (std::size_t k = 0; k < n; ++k) {
                    table.payload(resident[k]).ppn = ppns[k];
                    table.payload(resident[k]).obv = BitVector64(obvs[k]);
                }
            } else {
                ar.packed(n, 4, [&](std::size_t k) {
                    const TlbEntryData &d = table.payload(resident[k]);
                    return unsigned(d.writable) | unsigned(d.cow) << 1 |
                           unsigned(d.overlayEnabled) << 2 |
                           unsigned(d.metadataMode) << 3;
                });
                ar.varints(n, [&](std::size_t k) {
                    return table.payload(resident[k]).ppn;
                });
                ar.varints(n, [&](std::size_t k) {
                    return table.payload(resident[k]).obv.raw();
                });
            }
        };
        Table::io(table, ar,
                  kVpnBits + std::numeric_limits<Asid>::digits,
                  "TLB '" + self.name() + "'", fields);
    });
}

template <class Self, class Ar>
void
TwoLevelTlb::io(Self &self, Ar &ar)
{
    ar.section("TLB2", [&] {
        snapshot::visit(self.l1_, ar);
        snapshot::visit(self.l2_, ar);
    });
}

OVL_SNAPSHOT_IO(Tlb);
OVL_SNAPSHOT_IO(TwoLevelTlb);

} // namespace ovl
