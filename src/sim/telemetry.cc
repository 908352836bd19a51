#include "sim/telemetry.hh"

#include "sim/json.hh"

namespace cwsp::sim {

std::size_t
CounterSampler::ensureTrack(const std::string &name,
                            std::uint16_t lane)
{
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        if (tracks_[i].name == name) {
            tracks_[i].lane = lane;
            return i;
        }
    }
    Track t;
    t.name = name;
    t.lane = lane;
    // Keep every series rectangular: a track created after sampling
    // started backfills zeros for the boundaries it missed. In
    // practice all tracks are registered before the first commit.
    t.values.assign(ticks_.size(), 0);
    tracks_.push_back(std::move(t));
    return tracks_.size() - 1;
}

void
CounterSampler::sampleUpTo(Tick now)
{
    while (next_ <= now) {
        ticks_.push_back(next_);
        for (auto &t : tracks_)
            t.values.push_back(t.probe ? t.probe(next_) : 0);
        next_ += period_;
    }
}

void
CounterSampler::clearSamples()
{
    ticks_.clear();
    for (auto &t : tracks_)
        t.values.clear();
    next_ = 0;
}

void
CounterSampler::captureState(StateWriter &w) const
{
    w.pod<Tick>(period_);
    w.pod<Tick>(next_);
    w.pod<std::uint64_t>(tracks_.size());
    w.sizedArray(ticks_.data(), ticks_.size());
    for (const auto &t : tracks_)
        w.sizedArray(t.values.data(), t.values.size());
}

bool
CounterSampler::restoreState(StateReader &r)
{
    auto period = r.pod<Tick>();
    auto next = r.pod<Tick>();
    auto n_tracks = r.pod<std::uint64_t>();
    auto n_ticks = r.count();
    if (period != period_ || n_tracks != tracks_.size()) {
        // Geometry mismatch: skip the blob so a positional caller
        // stays aligned, then report the fork unusable.
        std::vector<Tick> scratch(n_ticks);
        r.array(scratch.data(), n_ticks);
        for (std::uint64_t i = 0; i < n_tracks; ++i) {
            auto n = r.count();
            std::vector<std::uint64_t> vals(n);
            r.array(vals.data(), n);
        }
        return false;
    }
    next_ = next;
    ticks_.resize(n_ticks);
    r.array(ticks_.data(), n_ticks);
    for (auto &t : tracks_) {
        auto n = r.count();
        t.values.resize(n);
        r.array(t.values.data(), n);
    }
    return true;
}

void
CounterSampler::exportJson(json::Writer &w) const
{
    w.beginObject(json::kSpaced)
        .field("period", period_)
        .field("samples", ticks_.size())
        .key("ticks")
        .beginArray(json::kSpaced);
    for (Tick t : ticks_)
        w.value(t);
    w.end().key("tracks").beginObject(json::kSpaced);
    for (const auto &track : tracks_) {
        w.key(track.name).beginArray(json::kSpaced);
        for (std::uint64_t v : track.values)
            w.value(v);
        w.end();
    }
    w.end().end();
}

} // namespace cwsp::sim
