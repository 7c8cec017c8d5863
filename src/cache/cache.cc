#include "cache/cache.h"

#include "common/bitops.h"

namespace ansmet::cache {

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned assoc,
                       unsigned line_bytes)
    : line_shift_(log2Exact(line_bytes)), assoc_(assoc)
{
    ANSMET_ASSERT(isPow2(line_bytes));
    const std::uint64_t lines = size_bytes / line_bytes;
    ANSMET_ASSERT(lines % assoc == 0, "capacity not divisible by assoc");
    const std::uint64_t num_sets = lines / assoc;
    ANSMET_ASSERT(isPow2(num_sets), "set count must be a power of two");
    sets_.resize(num_sets);
    for (auto &s : sets_)
        s.ways.resize(assoc);
}

std::uint64_t
CacheArray::setIndex(Addr addr) const
{
    return (addr >> line_shift_) & (sets_.size() - 1);
}

Addr
CacheArray::tagOf(Addr addr) const
{
    return (addr >> line_shift_) / sets_.size();
}

bool
CacheArray::accessAndFill(Addr addr)
{
    Set &set = sets_[setIndex(addr)];
    const Addr tag = tagOf(addr);
    ++use_clock_;

    for (auto &w : set.ways) {
        if (w.valid && w.tag == tag) {
            w.lastUse = use_clock_;
            return true;
        }
    }

    // Miss: install into the LRU way.
    Way *victim = &set.ways[0];
    for (auto &w : set.ways) {
        if (!w.valid) {
            victim = &w;
            break;
        }
        if (w.lastUse < victim->lastUse)
            victim = &w;
    }
    victim->tag = tag;
    victim->valid = true;
    victim->lastUse = use_clock_;
    return false;
}

bool
CacheArray::probe(Addr addr) const
{
    const Set &set = sets_[setIndex(addr)];
    const Addr tag = tagOf(addr);
    for (const auto &w : set.ways)
        if (w.valid && w.tag == tag)
            return true;
    return false;
}

void
CacheArray::flush()
{
    for (auto &s : sets_)
        for (auto &w : s.ways)
            w.valid = false;
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &p)
    : p_(p),
      l1_(p.l1Bytes, p.l1Assoc),
      l2_(p.l2Bytes, p.l2Assoc),
      llc_(p.llcBytes, p.llcAssoc)
{
}

CacheHierarchy::Level
CacheHierarchy::access(Addr addr)
{
    if (l1_.accessAndFill(addr))
        return Level::kL1;
    // The L1 miss above already installed the line there (fill on the
    // way back); the same holds for L2/LLC below.
    if (l2_.accessAndFill(addr))
        return Level::kL2;
    if (llc_.accessAndFill(addr))
        return Level::kLlc;
    return Level::kMemory;
}

unsigned
CacheHierarchy::hitCycles(Level level) const
{
    switch (level) {
      case Level::kL1: return p_.l1Cycles;
      case Level::kL2: return p_.l2Cycles;
      case Level::kLlc: return p_.llcCycles;
      case Level::kMemory: return p_.llcCycles; // traversal before DRAM
    }
    return p_.l1Cycles;
}

void
CacheHierarchy::flush()
{
    l1_.flush();
    l2_.flush();
    llc_.flush();
}

} // namespace ansmet::cache
