#include "interp/machine_state.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace cwsp::interp {

namespace {

/** Page-id mix before masking (ids differ only in low bits). */
inline std::size_t
mixPageId(std::uint64_t id)
{
    std::uint64_t h = id;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
}

} // namespace

std::size_t
SparseMemory::dirSlot(std::uint64_t page_id) const
{
    std::size_t mask = dirKeys_.size() - 1;
    std::size_t i = mixPageId(page_id) & mask;
    while (dirVals_[i] != 0 && dirKeys_[i] != page_id)
        i = (i + 1) & mask;
    return i;
}

std::uint32_t
SparseMemory::findIdx(std::uint64_t page_id) const
{
    if (lastIdx_ != ~0u && pages_[lastIdx_].id == page_id)
        return lastIdx_;
    if (dirKeys_.empty())
        return ~0u;
    return dirVals_[dirSlot(page_id)] - 1; // empty slot: 0 - 1 = ~0u
}

const SparseMemory::Page *
SparseMemory::findPage(std::uint64_t page_id) const
{
    std::uint32_t idx = findIdx(page_id);
    return idx == ~0u ? nullptr : &pages_[idx];
}

SparseMemory::Page &
SparseMemory::getPage(std::uint64_t page_id)
{
    if (lastIdx_ != ~0u && pages_[lastIdx_].id == page_id)
        return pages_[lastIdx_];
    if (dirKeys_.empty()) {
        dirKeys_.assign(64, kNoPage);
        dirVals_.assign(64, 0);
    }
    std::size_t i = dirSlot(page_id);
    if (dirVals_[i] == 0) {
        if ((pages_.size() + 1) * 10 > dirKeys_.size() * 7) {
            growDirectory();
            i = dirSlot(page_id);
        }
        pages_.emplace_back();
        Page &p = pages_.back();
        p.words.fill(0);
        p.present.fill(0);
        p.id = page_id;
        dirKeys_[i] = page_id;
        dirVals_[i] =
            static_cast<std::uint32_t>(pages_.size());
    }
    lastIdx_ = dirVals_[i] - 1;
    return pages_[lastIdx_];
}

void
SparseMemory::growDirectory()
{
    std::size_t cap = dirKeys_.size() * 2;
    dirKeys_.assign(cap, kNoPage);
    dirVals_.assign(cap, 0);
    std::size_t mask = cap - 1;
    for (std::size_t idx = 0; idx < pages_.size(); ++idx) {
        std::size_t i = mixPageId(pages_[idx].id) & mask;
        while (dirVals_[i] != 0)
            i = (i + 1) & mask;
        dirKeys_[i] = pages_[idx].id;
        dirVals_[i] = static_cast<std::uint32_t>(idx + 1);
    }
}

Word
SparseMemory::read(Addr addr) const
{
    cwsp_assert((addr & 7) == 0, "misaligned read at ", addr);
    const Page *p = findPage(addr >> kPageShift);
    if (!p)
        return 0;
    unsigned w = static_cast<unsigned>(addr >> 3) & (kPageWords - 1);
    return p->words[w];
}

Word
SparseMemory::read(Addr addr)
{
    cwsp_assert((addr & 7) == 0, "misaligned read at ", addr);
    std::uint32_t idx = findIdx(addr >> kPageShift);
    if (idx == ~0u)
        return 0;
    lastIdx_ = idx;
    unsigned w = static_cast<unsigned>(addr >> 3) & (kPageWords - 1);
    return pages_[idx].words[w];
}

void
SparseMemory::write(Addr addr, Word value)
{
    cwsp_assert((addr & 7) == 0, "misaligned write at ", addr);
    Page &p = getPage(addr >> kPageShift);
    unsigned w = static_cast<unsigned>(addr >> 3) & (kPageWords - 1);
    p.words[w] = value;
    p.present[w >> 6] |= 1ull << (w & 63);
}

std::size_t
SparseMemory::footprintWords() const
{
    std::size_t n = 0;
    for (const Page &p : pages_)
        for (std::uint64_t bits : p.present)
            n += static_cast<std::size_t>(std::popcount(bits));
    return n;
}

std::size_t
SparseMemory::residentBytes() const
{
    return pages_.capacity() * sizeof(Page) +
           dirKeys_.capacity() * sizeof(std::uint64_t) +
           dirVals_.capacity() * sizeof(std::uint32_t);
}

void
SparseMemory::clear()
{
    pages_.clear();
    std::fill(dirKeys_.begin(), dirKeys_.end(), kNoPage);
    std::fill(dirVals_.begin(), dirVals_.end(), 0);
    lastIdx_ = ~0u;
}

std::vector<std::uint32_t>
SparseMemory::sortedPageIndexes() const
{
    std::vector<std::uint32_t> idx(pages_.size());
    for (std::uint32_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return pages_[a].id < pages_[b].id;
              });
    return idx;
}

bool
SparseMemory::equals(const SparseMemory &other) const
{
    // Pages absent on one side compare against zeros: present-bitmap
    // differences alone (e.g. an explicitly written zero) are not
    // value differences.
    auto covered = [](const Page &a, const Page *b) {
        for (unsigned w = 0; w < kPageWords; ++w) {
            Word bv = b ? b->words[w] : 0;
            if (a.words[w] != bv)
                return false;
        }
        return true;
    };
    for (const Page &p : pages_)
        if (!covered(p, other.findPage(p.id)))
            return false;
    for (const Page &p : other.pages_)
        if (!findPage(p.id) && !covered(p, nullptr))
            return false;
    return true;
}

} // namespace cwsp::interp
