(** Adapter conformance kit: one suite of semantic obligations, every
    adapter.

    Each VLink adapter (loopback, MadIO, SysIO/TCP, pstream, AdOC, AdOC
    under the cipher, crypto, VRP, resilient) must honour the same
    contract — connect/accept symmetry, no byte loss or reordering, [Eof]
    vs [Error] discipline on peer close, [Again]/{!Vlink.Vl.on_writable}
    progress under backpressure, close idempotence and timeout behaviour.
    The kit states each obligation once and instantiates it against a
    fixture per adapter: a fresh grid whose topology and preferences make
    the selector pick exactly that adapter. A Circuit counterpart checks
    message boundaries, incremental packing and group membership per
    adapter mix.

    A Collectives counterpart instantiates every {!Collectives.Group}
    operation (barrier, bcast, reduce, allreduce, gather, scatter) against
    topology x strategy fixtures — one shared LAN or SAN segment, and two
    SAN islands over a WAN backbone, each under both the flat and the
    multilevel strategy — checking payload correctness, barrier
    synchronisation and exact WAN-crossing counts. ["coll-fault/wan-down"]
    drops the WAN backbone under a deadline-armed broadcast and requires
    every rank to reach a definite outcome (delivery or a clean failure)
    instead of hanging.

    Cases are pure: each run builds a fresh grid, so the same case can be
    executed under any schedule {!Engine.Sim.policy} and fault plan —
    that's what {!Explore} does. A violation raises {!Failed}. *)

exception Failed of string
(** An obligation was violated; the message says which invariant and how. *)

(** One runnable conformance case, named ["<fixture>/<obligation>"]. *)
type case = {
  case_name : string;
  run : plan:Padico_fault.Plan.t option -> Engine.Sim.policy -> unit;
      (** Build the fixture's grid, set the schedule policy, apply the
          fault plan (if any) and execute the obligation. Raises {!Failed}
          on violation; deterministic for fixed (plan, policy). *)
}

val bare_prefs : Selector.Prefs.t
(** The fixtures' preferences: no filter unless a fixture enables one, so
    each fixture's expected driver is exact. *)

val cases : ?demo:bool -> unit -> case list
(** The full kit: every obligation against every applicable adapter
    fixture, plus the Circuit cases. [~demo:true] (default false) also
    registers ["demo/ordering"], a deliberately planted
    register-after-dispatch bug that FIFO masks — used to demonstrate (and
    test) that schedule exploration catches this bug class. *)

val host_cases : unit -> case list
(** The kit's host-backend subset: every VLink obligation against the
    loopback and SysIO fixtures on [Padico.Host] — real Unix sockets,
    wall-clock timers. The schedule-policy argument is ignored (the OS
    schedules); fault plans still apply, through real-socket resets. *)

val adapters_covered : int
(** Number of VLink adapter fixtures in the kit. *)
