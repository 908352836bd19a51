/**
 * @file
 * Architectural machine state: sparse word-addressed memory, call
 * frames, and the NVM checkpoint-area address map.
 */

#ifndef CWSP_INTERP_MACHINE_STATE_HH
#define CWSP_INTERP_MACHINE_STATE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "ir/ir.hh"
#include "sim/types.hh"

namespace cwsp::interp {

/**
 * Sparse 64-bit-word memory. Unwritten words read as zero (zero-filled
 * pages). Addresses must be 8-byte aligned.
 *
 * Storage is paged: 512-word (4 KiB) pages indexed through an
 * open-addressed page directory, with a present-bitmap per page so
 * "distinct words ever written" semantics survive (a written zero is
 * distinct from an untouched word). The interpreter's accesses
 * cluster heavily (stack, checkpoint slots, kernel working set), so
 * nearly every access hits the one-entry last-page cache and costs a
 * bitmap test plus an array index — no hashing, no node chasing.
 *
 * Deliberately heap-backed (not arena-backed): crash runs copy the
 * durable image across simulator resets, so the memory must outlive
 * any simulation arena.
 */
class SparseMemory
{
  public:
    /**
     * Read-only lookup: no side effects, so any number of threads may
     * read one shared image concurrently.
     */
    Word read(Addr addr) const;
    /** Same value; also refreshes the one-entry last-page cache. */
    Word read(Addr addr);
    void write(Addr addr, Word value);

    /** Number of distinct words ever written. */
    std::size_t footprintWords() const;

    /** Heap bytes held (page pool + directory), for cache caps. */
    std::size_t residentBytes() const;

    /** Iterate all (addr, value) pairs in ascending address order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t idx : sortedPageIndexes()) {
            const Page &p = pages_[idx];
            Addr base = p.id << kPageShift;
            for (unsigned w = 0; w < kPageWords; ++w)
                if (p.present[w >> 6] & (1ull << (w & 63)))
                    fn(base + w * kWordBytes, p.words[w]);
        }
    }

    /**
     * Read-only walk over the word range [@p begin, @p end), one call
     * per page-bounded chunk: fn(addr, words, n) covers the n words
     * from addr, where words points at their stored values, or is
     * null when the page was never written (all n read as zero).
     * Both bounds must be word-aligned.
     */
    template <typename Fn>
    void
    forEachChunk(Addr begin, Addr end, Fn &&fn) const
    {
        for (Addr a = begin; a < end;) {
            const Addr pageEnd = ((a >> kPageShift) + 1) << kPageShift;
            const Addr stop = pageEnd < end ? pageEnd : end;
            const Page *p = findPage(a >> kPageShift);
            const std::size_t first = (a >> 3) & (kPageWords - 1);
            fn(a, p ? p->words.data() + first : nullptr,
               static_cast<std::size_t>((stop - a) / kWordBytes));
            a = stop;
        }
    }

    /** Drop all contents, keeping page/directory capacity warm. */
    void clear();

    /**
     * Value equality under zero-default semantics: words absent from
     * one side compare equal to zero on the other.
     */
    bool equals(const SparseMemory &other) const;

  private:
    static constexpr unsigned kPageWords = 512; ///< 4 KiB pages
    static constexpr unsigned kPageShift = 12;  ///< addr -> page id
    static constexpr std::uint64_t kNoPage = ~0ull;

    struct Page
    {
        std::array<Word, kPageWords> words;
        std::array<std::uint64_t, kPageWords / 64> present;
        std::uint64_t id = kNoPage;
    };

    /** Pages_ index of @p page_id, or ~0u; never touches lastIdx_. */
    std::uint32_t findIdx(std::uint64_t page_id) const;
    const Page *findPage(std::uint64_t page_id) const;
    Page &getPage(std::uint64_t page_id);
    void growDirectory();
    std::size_t dirSlot(std::uint64_t page_id) const;
    std::vector<std::uint32_t> sortedPageIndexes() const;

    std::vector<Page> pages_;
    /** Open-addressed pageId -> pages_ index (+1; 0 = empty). */
    std::vector<std::uint64_t> dirKeys_;
    std::vector<std::uint32_t> dirVals_;
    /**
     * One-entry MRU cache (index into pages_, or ~0u). Only the
     * non-const paths update it; const reads may use it as a hint.
     */
    std::uint32_t lastIdx_ = ~0u;
};

/** Poison pattern for registers recovery does not restore. */
constexpr Word kPoison = 0xdeadbeefdeadbeefULL;

/** One activation record. */
struct Frame
{
    std::array<Word, ir::kNumRegs> regs{};
    ir::FuncId func = ir::kNoFunc;
    ir::BlockId block = 0;
    std::uint32_t index = 0;   ///< next instruction to execute
    ir::Reg returnDst = ir::kNoReg; ///< caller register for the result
};

/** A resumable control snapshot (taken at region boundaries). */
struct ControlSnapshot
{
    std::vector<Frame> frames;
};

/** Bytes of simulated stack given to each frame. */
constexpr Addr kFrameStackBytes = 4096;

/** Checkpoint-slot bytes per frame (one word per register). */
constexpr Addr kCkptFrameBytes = ir::kNumRegs * kWordBytes;

/** Base of core @p core's stack area. */
inline Addr
stackBase(CoreId core)
{
    return ir::Module::kStackBase + core * ir::Module::kStackStride;
}

/** Frame pointer value for frame depth @p depth on core @p core. */
inline Addr
framePointer(CoreId core, std::size_t depth)
{
    return stackBase(core) + depth * kFrameStackBytes;
}

/** Address of checkpoint slot @p reg of frame @p depth on @p core. */
inline Addr
ckptSlotAddr(CoreId core, std::size_t depth, ir::Reg reg)
{
    return ir::Module::kCkptBase + core * ir::Module::kCkptStride +
           depth * kCkptFrameBytes + reg * kWordBytes;
}

} // namespace cwsp::interp

#endif // CWSP_INTERP_MACHINE_STATE_HH
