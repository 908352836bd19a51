#include "core/commit_stream.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cwsp::core {

namespace {

using interp::CommitKind;

/**
 * Compiles commits into the stream as they arrive, batching runs of
 * constant-cost steps in the same pass. One raw op is held back: a
 * CallRet batches only when it is a whole step, i.e. when the next
 * commit starts a new step (a Call's argument spills share its step).
 * Optionally forwards every commit to a second sink as well (the
 * golden run's device-output log).
 */
class StreamRecordSink final : public interp::CommitSink
{
  public:
    StreamRecordSink(CommitStream &stream,
                     const interp::Interpreter &interp,
                     interp::CommitSink *tee = nullptr)
        : stream_(stream), interp_(interp), tee_(tee)
    {
    }

    void
    onCommit(const interp::CommitInfo &info) override
    {
        if (tee_)
            tee_->onCommit(info);
        if (held_)
            emit(newStep_);
        CommitStream::Op &op = pending_;
        op = CommitStream::Op{};
        op.addr = info.addr;
        op.value = info.storeValue;
        op.func = info.func;
        op.kind = static_cast<std::uint8_t>(info.kind);
        if (newStep_) {
            op.flags |= CommitStream::kFlagNewStep;
            newStep_ = false;
        }
        if (info.isCheckpoint)
            op.flags |= CommitStream::kFlagCkpt;
        if (info.kind == CommitKind::Boundary) {
            op.aux = info.staticRegion;
            // Same snapshot RecordingSink takes: rewound to re-commit
            // the boundary instruction on resume.
            CommitStream::SnapRef ref;
            ref.begin = static_cast<std::uint32_t>(
                stream_.frames.size());
            interp_.appendSnapshotFrames(stream_.frames);
            ref.count = static_cast<std::uint32_t>(
                stream_.frames.size() - ref.begin);
            stream_.snapRefs.push_back(ref);
        }
        held_ = true;
        ++stream_.commits;
    }

    void markNewStep() { newStep_ = true; }

    /** Emit the held-back op (the run has ended). */
    void
    finish()
    {
        if (held_)
            emit(true);
    }

  private:
    /**
     * Append the held-back op, folding it into a batch when it is a
     * whole one-commit step of fixed cost 1 (Alu, Branch) or 2 (a
     * bare CallRet: a Ret, or a Call with no argument spills).
     * @p single: the held op's step has no further commits.
     */
    void
    emit(bool single)
    {
        std::uint8_t bk = 0;
        if (pending_.flags & CommitStream::kFlagNewStep) {
            auto k = static_cast<CommitKind>(pending_.kind);
            if (k == CommitKind::Alu || k == CommitKind::Branch)
                bk = CommitStream::kBatch1;
            else if (k == CommitKind::CallRet && single)
                bk = CommitStream::kBatch2;
        }
        std::vector<CommitStream::Op> &ops = stream_.ops;
        if (bk == 0) {
            ops.push_back(pending_);
        } else if (!ops.empty() && ops.back().kind == bk) {
            ++ops.back().aux;
        } else {
            CommitStream::Op b;
            b.kind = bk;
            b.flags = CommitStream::kFlagNewStep;
            b.aux = 1;
            ops.push_back(b);
        }
    }

    CommitStream &stream_;
    const interp::Interpreter &interp_;
    interp::CommitSink *tee_;
    CommitStream::Op pending_;
    bool held_ = false;
    bool newStep_ = false;
};

/**
 * Interpret @p entry to completion over @p memory, feeding every
 * commit to @p tee (when set) and, with @p stream set, compiling the
 * commit sequence into it; at least one of the two must be set.
 * Returns the entry's return value.
 */
Word
interpretOnce(const ir::Module &module, const std::string &entry,
              const std::vector<Word> &args, std::uint64_t max_instrs,
              std::uint64_t expected_instrs,
              interp::SparseMemory &memory, CommitStream *stream,
              interp::CommitSink *tee)
{
    interp::Interpreter interp(module, memory, 0);
    if (!stream) {
        interp.start(entry, args, *tee);
        for (std::uint64_t steps = 0; !interp.finished();) {
            interp.step(*tee);
            if (++steps > max_instrs)
                cwsp_fatal("instruction budget exceeded (", max_instrs,
                           ") in ", entry);
        }
        return interp.returnValue();
    }

    stream->module = &module;
    stream->entry = entry;
    stream->args = args;
    if (expected_instrs != 0) {
        // Batching folds most steps away: the paper apps' streams
        // hold 0.07-1.0 ops per hinted instruction, 0.25 at the
        // median. Cap so an inflated hint cannot balloon memory.
        constexpr std::uint64_t kMaxOpReserve = std::uint64_t{1} << 21;
        stream->ops.reserve(static_cast<std::size_t>(
            std::min(expected_instrs / 2, kMaxOpReserve)));
    }

    StreamRecordSink sink(*stream, interp, tee);
    // start()'s argument-spill stores run before the step loop, so
    // they carry no new-step flag: replay applies them before the
    // first crash check, exactly as the interpreted path does.
    interp.start(entry, args, sink);
    while (!interp.finished()) {
        sink.markNewStep();
        interp.step(sink);
        if (++stream->steps > max_instrs)
            cwsp_fatal("instruction budget exceeded (", max_instrs,
                       ") while recording ", entry);
    }
    sink.finish();
    stream->returnValue = interp.returnValue();

    stream->ops.shrink_to_fit();
    stream->frames.shrink_to_fit();
    stream->snapRefs.shrink_to_fit();
    return stream->returnValue;
}

} // namespace

CommitStream
recordCommitStream(const ir::Module &module, const std::string &entry,
                   const std::vector<Word> &args,
                   std::uint64_t max_instrs,
                   std::uint64_t expected_instrs)
{
    CommitStream stream;
    interp::SparseMemory memory;
    interpretOnce(module, entry, args, max_instrs, expected_instrs,
                  memory, &stream, nullptr);
    return stream;
}

GoldenRun
goldenRun(const ir::Module &module, const std::string &entry,
          const std::vector<Word> &args, std::uint64_t max_instrs,
          std::uint64_t expected_instrs, bool record)
{
    GoldenRun g;
    IoLogSink io(g.io);
    g.returnValue =
        interpretOnce(module, entry, args, max_instrs, expected_instrs,
                      g.memory, record ? &g.stream : nullptr, &io);
    return g;
}

} // namespace cwsp::core
