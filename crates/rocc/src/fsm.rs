//! The accelerator's interface FSM (paper Fig. 5).
//!
//! Commands arrive from the Rocket core over the RoCC `cmd` channel; the
//! interface FSM leaves `Idle` for a function-specific state, waits for the
//! execution unit's `ready`, passes through a response state when the
//! command produces a core-bound value, and returns to `Idle`. The model
//! below executes commands atomically but records the exact state sequence,
//! so the Fig. 5 structure is observable and testable.

use std::fmt;

use crate::isa::DecimalFunct;

/// Interface FSM states. `Read`/`Write` cover the register-exchange
/// functions, `Execute` covers the decimal compute functions, and the
/// response states model the cycle in which `resp` fires back to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FsmState {
    /// Waiting for a command.
    #[default]
    Idle,
    /// Serving `RD` (register read toward the core).
    Read,
    /// Serving `WR`/`LD` (register write from core or memory).
    Write,
    /// Serving `CLR_ALL`.
    Clear,
    /// Serving `ACCUM`.
    Accum,
    /// Serving a decimal compute function (`DEC_ADD`, `DEC_MUL`, …).
    Execute(DecimalFunct),
    /// Sending a read/compute response back to the core.
    RespondRead,
    /// Acknowledging a write-style command.
    RespondWrite,
    /// Sticky error state (this framework's Fig. 5 extension): entered when
    /// the execution unit reports a fault, left only on `CLR_ALL`. `STAT`
    /// is serviced without leaving it; every other command is ignored.
    Error,
}

impl fmt::Display for FsmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmState::Idle => write!(f, "Idle"),
            FsmState::Read => write!(f, "Read"),
            FsmState::Write => write!(f, "Write"),
            FsmState::Clear => write!(f, "Clear"),
            FsmState::Accum => write!(f, "Accum"),
            FsmState::Execute(func) => write!(f, "Execute({func})"),
            FsmState::RespondRead => write!(f, "ReadResp"),
            FsmState::RespondWrite => write!(f, "WriteResp"),
            FsmState::Error => write!(f, "Error"),
        }
    }
}

/// One recorded FSM transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before.
    pub from: FsmState,
    /// State after.
    pub to: FsmState,
    /// The signal that caused it (`cmd.fire`, `ready`, `resp.fire`).
    pub cause: &'static str,
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} --{}--> {}", self.from, self.cause, self.to)
    }
}

/// The interface FSM with an optional transition trace.
#[derive(Debug, Default)]
pub struct InterfaceFsm {
    state: FsmState,
    tracing: bool,
    trace: Vec<Transition>,
}

impl InterfaceFsm {
    /// A fresh FSM in `Idle`.
    #[must_use]
    pub fn new() -> Self {
        InterfaceFsm::default()
    }

    /// Enables transition recording (disabled by default; the trace grows
    /// with every command).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> FsmState {
        self.state
    }

    /// The recorded transitions (empty unless tracing).
    #[must_use]
    pub fn trace(&self) -> &[Transition] {
        &self.trace
    }

    fn goto(&mut self, to: FsmState, cause: &'static str) {
        if self.tracing {
            self.trace.push(Transition {
                from: self.state,
                to,
                cause,
            });
        }
        self.state = to;
    }

    /// Walks the state sequence for one command and returns to `Idle`.
    /// `responds` says whether the command sends a value back to the core
    /// (`xd` set).
    pub fn run_command(&mut self, funct: DecimalFunct, responds: bool) {
        debug_assert_eq!(self.state, FsmState::Idle, "command while busy");
        let busy = match funct {
            DecimalFunct::Rd | DecimalFunct::Stat => FsmState::Read,
            DecimalFunct::Wr | DecimalFunct::Ld => FsmState::Write,
            DecimalFunct::ClrAll => FsmState::Clear,
            DecimalFunct::Accum => FsmState::Accum,
            compute => FsmState::Execute(compute),
        };
        self.goto(busy, "cmd.fire");
        if responds {
            self.goto(FsmState::RespondRead, "ready");
            self.goto(FsmState::Idle, "resp.fire");
        } else {
            self.goto(FsmState::RespondWrite, "ready");
            self.goto(FsmState::Idle, "cmd_res");
        }
    }

    /// Enters the sticky `Error` state (the execution unit reported a
    /// fault, or the core's watchdog forced an abort).
    pub fn enter_error(&mut self, cause: &'static str) {
        self.goto(FsmState::Error, cause);
    }

    /// Leaves `Error` for `Idle` through the `Clear` state (the `CLR_ALL`
    /// recovery path).
    pub fn clear_error(&mut self) {
        self.goto(FsmState::Clear, "clr_all");
        self.goto(FsmState::RespondWrite, "ready");
        self.goto(FsmState::Idle, "cmd_res");
    }

    /// Fault-injection port: forces an arbitrary state, recording the
    /// transition with an `inject` cause. Models a bit flip in the state
    /// register itself.
    pub fn force_state(&mut self, state: FsmState) {
        self.goto(state, "inject");
    }

    /// Resets to `Idle` (trace preserved).
    pub fn reset(&mut self) {
        self.state = FsmState::Idle;
    }

    /// Restores a previously captured state without recording a
    /// transition — the machine-snapshot restore path, which must not
    /// perturb the observable trace the way [`InterfaceFsm::force_state`]
    /// (a modelled bit flip) does.
    pub fn restore_state(&mut self, state: FsmState) {
        self.state = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_sequence_for_dec_add() {
        let mut fsm = InterfaceFsm::new();
        fsm.set_tracing(true);
        fsm.run_command(DecimalFunct::DecAdd, true);
        let states: Vec<FsmState> = fsm.trace().iter().map(|t| t.to).collect();
        assert_eq!(
            states,
            vec![
                FsmState::Execute(DecimalFunct::DecAdd),
                FsmState::RespondRead,
                FsmState::Idle
            ]
        );
        assert_eq!(fsm.trace()[0].cause, "cmd.fire");
    }

    #[test]
    fn fig5_sequence_for_wr() {
        let mut fsm = InterfaceFsm::new();
        fsm.set_tracing(true);
        fsm.run_command(DecimalFunct::Wr, false);
        let states: Vec<FsmState> = fsm.trace().iter().map(|t| t.to).collect();
        assert_eq!(
            states,
            vec![FsmState::Write, FsmState::RespondWrite, FsmState::Idle]
        );
    }

    #[test]
    fn always_returns_to_idle() {
        let mut fsm = InterfaceFsm::new();
        for funct in DecimalFunct::ALL {
            fsm.run_command(funct, funct == DecimalFunct::Rd);
            assert_eq!(fsm.state(), FsmState::Idle, "{funct}");
        }
    }

    #[test]
    fn error_state_is_sticky_until_cleared() {
        let mut fsm = InterfaceFsm::new();
        fsm.set_tracing(true);
        fsm.enter_error("exec.fault");
        assert_eq!(fsm.state(), FsmState::Error);
        fsm.clear_error();
        assert_eq!(fsm.state(), FsmState::Idle);
        let states: Vec<FsmState> = fsm.trace().iter().map(|t| t.to).collect();
        assert_eq!(
            states,
            vec![
                FsmState::Error,
                FsmState::Clear,
                FsmState::RespondWrite,
                FsmState::Idle
            ]
        );
    }

    #[test]
    fn forced_state_records_injection() {
        let mut fsm = InterfaceFsm::new();
        fsm.set_tracing(true);
        fsm.force_state(FsmState::Execute(DecimalFunct::DecAdd));
        assert_eq!(fsm.state(), FsmState::Execute(DecimalFunct::DecAdd));
        assert_eq!(fsm.trace()[0].cause, "inject");
    }

    #[test]
    fn tracing_off_by_default() {
        let mut fsm = InterfaceFsm::new();
        fsm.run_command(DecimalFunct::DecAdd, true);
        assert!(fsm.trace().is_empty());
    }
}
