#include "tlb.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "sim/profile.hh"
#include "sim/snapshot.hh"
#include "sim/trace.hh"

namespace ovl
{

Tlb::Tlb(std::string name, TlbParams params)
    : SimObject(std::move(name)), params_(params),
      numSets_(params.entries / params.associativity),
      keys_(params.entries, kNoKey),
      ways_(params.entries),
      hits_(&statGroup(), "hits", "TLB hits"),
      misses_(&statGroup(), "misses", "TLB misses"),
      coherenceUpdates_(&statGroup(), "coherenceUpdates",
                        "OBitVector bits updated by coherence messages")
{
    ovl_assert(params.entries % params.associativity == 0,
               "TLB entries must divide evenly into sets");
    ovl_assert(isPowerOf2(numSets_), "TLB set count must be a power of two");
}

const TlbEntryData *
Tlb::probe(Asid asid, Addr vpn) const
{
    const Way *way = const_cast<Tlb *>(this)->findWay(asid, vpn);
    return way ? &way->data : nullptr;
}

void
Tlb::invalidate(Asid asid, Addr vpn)
{
    if (Way *way = findWay(asid, vpn)) {
        keys_[std::size_t(way - ways_.data())] = kNoKey;
        noteErased(asid);
    }
}

void
Tlb::invalidateAsid(Asid asid)
{
    for (std::uint64_t &key : keys_) {
        if (key != kNoKey && asidOf(key) == asid)
            key = kNoKey;
    }
    if (asid < asidEntries_.size())
        asidEntries_[asid] = 0;
}

void
Tlb::flush()
{
    std::fill(keys_.begin(), keys_.end(), kNoKey);
    asidEntries_.assign(asidEntries_.size(), 0);
}

bool
Tlb::updateObvBit(Asid asid, Addr vpn, unsigned line_in_page, bool value)
{
    if (!holdsAsid(asid))
        return false;
    if (Way *way = findWay(asid, vpn)) {
        way->data.obv.assign(line_in_page, value);
        ++coherenceUpdates_;
        return true;
    }
    return false;
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
    l1_.insert(asid, vpn, data);
    return l1_.lookup(asid, vpn);
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
    ar.section("TLB ", [&] {
        ar.expectEq(self.keys_.size(), "TLB '" + self.name() + "' way count");
        for (auto &key : self.keys_)
            ar.u64(key);
        for (auto &way : self.ways_) {
            ar.u64(way.data.ppn);
            ar.b(way.data.writable);
            ar.b(way.data.cow);
            ar.b(way.data.overlayEnabled);
            ar.b(way.data.metadataMode);
            ar.u64(way.data.obv.raw());
            ar.u64(way.lruSeq);
        }
        ar.u64(self.lruCounter_);
        ar.seq(self.asidEntries_, 4, [&](auto &n) { ar.u32(n); });
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
