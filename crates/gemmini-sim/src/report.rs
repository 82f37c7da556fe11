//! Simulation reports.

use exo_obs::Json;

use crate::Unit;

/// Busy cycles of one functional unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UnitBusy {
    /// The unit.
    pub unit: Unit,
    /// Cycles the unit spent executing.
    pub busy_cycles: u64,
}

/// The result of simulating one instruction trace.
#[derive(Clone, PartialEq, Debug)]
pub struct SimReport {
    /// Total cycles from first issue to last completion.
    pub cycles: u64,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// `macs / (cycles · peak)` — the quantity plotted in paper Fig. 4.
    pub utilization: f64,
    /// Instructions executed.
    pub instructions: u64,
    /// Pipeline flushes caused by configuration instructions.
    pub flushes: u64,
    /// DMA bytes moved.
    pub bytes_moved: u64,
    /// Always `false`: a trace is finite, so a run always consumes all of
    /// it. Kept for readers of the report (and its JSON form) that check
    /// the flag.
    pub truncated: bool,
    /// Per-unit busy cycles, in Load/Execute/Store order; units that did
    /// no work are omitted.
    pub busy: Vec<UnitBusy>,
}

impl SimReport {
    /// JSON form of the report (one object, units in a stable order).
    pub fn to_json(&self) -> Json {
        let mut busy: Vec<&UnitBusy> = self.busy.iter().collect();
        busy.sort_by_key(|b| b.unit.name());
        Json::obj(vec![
            ("type".into(), Json::Str("sim_report".into())),
            ("sim".into(), Json::Str("gemmini".into())),
            ("cycles".into(), Json::uint(self.cycles)),
            ("macs".into(), Json::uint(self.macs)),
            ("utilization".into(), Json::Float(self.utilization)),
            ("instructions".into(), Json::uint(self.instructions)),
            ("flushes".into(), Json::uint(self.flushes)),
            ("bytes_moved".into(), Json::uint(self.bytes_moved)),
            ("truncated".into(), Json::Bool(self.truncated)),
            (
                "busy".into(),
                Json::obj(
                    busy.iter()
                        .map(|b| (b.unit.name().to_string(), Json::uint(b.busy_cycles)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_parseable_and_stable() {
        let r = SimReport {
            cycles: 1000,
            macs: 4096,
            utilization: 0.25,
            instructions: 12,
            flushes: 1,
            bytes_moved: 2048,
            truncated: false,
            busy: vec![
                UnitBusy {
                    unit: Unit::Store,
                    busy_cycles: 10,
                },
                UnitBusy {
                    unit: Unit::Execute,
                    busy_cycles: 900,
                },
            ],
        };
        let parsed = Json::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(parsed.get("cycles").and_then(Json::as_int), Some(1000));
        assert_eq!(parsed.get("utilization").and_then(Json::as_f64), Some(0.25));
        let busy = parsed.get("busy").unwrap();
        assert_eq!(busy.get("execute").and_then(Json::as_int), Some(900));
        assert_eq!(busy.get("store").and_then(Json::as_int), Some(10));
    }
}
