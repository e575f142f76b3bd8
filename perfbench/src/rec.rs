//! The benchmark's own telemetry recorder for solves it drives directly.

use ftcg_telemetry::{Phase, Recorder, Stamp};

/// Accumulates phase wall time and call counts into fixed arrays: no
/// allocation, no events, nothing retained beyond the totals — the
/// cheapest recorder that still reads the clock around every phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseRecorder {
    pub ns: [u64; Phase::COUNT],
    pub calls: [u64; Phase::COUNT],
}

impl PhaseRecorder {
    pub fn reset(&mut self) {
        *self = PhaseRecorder::default();
    }
}

impl Recorder for PhaseRecorder {
    #[inline]
    fn start(&self) -> Stamp {
        Stamp::now()
    }

    #[inline]
    fn phase(&mut self, phase: Phase, since: Stamp) {
        self.ns[phase.index()] += since.elapsed_ns();
        self.calls[phase.index()] += 1;
    }
}
