(** Array-based 4-ary min-heap with integer priorities.

    The event queue of the simulator, of the sharded runtime's staging
    channels and of the Hostio timer list: priorities are times in
    nanoseconds, and entries with equal priority are dequeued in insertion
    order (FIFO), which keeps simulations deterministic.

    Values sit in a slab that never moves while they are queued; the
    tree itself holds only unboxed int keys, so a sift moves ints and
    pays no write barrier. {!push} returns a {!handle} through which
    {!cancel} takes the entry out in O(log n): a cancelled entry leaves
    the queue at once instead of waiting to be popped as a no-op.
    {!push}, {!pop}, {!cancel} and {!min_prio} allocate nothing except
    when {!push} grows the arrays, so queueing and dispatching an event
    costs no minor-heap words. Each heap carries a caller-supplied filler
    value, [dummy], that occupies every slot not holding a queued entry:
    a popped or cancelled value is no longer reachable from the heap, and
    a heap whose arrays grew past 4096 entries releases them when it
    drains to empty. *)

type 'a t

type handle
(** Names one queued entry of one heap. It stays valid until the entry
    is popped or cancelled, and never names a later entry, even one that
    reuses the same slab slot. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty heap whose vacant slots hold [dummy].
    [dummy] is never returned. *)

val length : 'a t -> int
(** [length h] is the number of queued entries. *)

val is_empty : 'a t -> bool

val push : 'a t -> prio:int -> 'a -> handle
(** [push h ~prio v] inserts [v] with priority [prio]. Raises [Failure]
    beyond 2{^24} queued entries or 2{^38} pushes over the heap's
    life. *)

val cancel : 'a t -> handle -> unit
(** [cancel h k] removes the entry [k] names from [h] in O(log n) and
    drops [h]'s reference to its value. A no-op when [k] names no queued
    entry (already popped or cancelled). [k] must come from [push] on
    [h]. The other entries keep their (priority, insertion) order. *)

val min_prio : 'a t -> int
(** [min_prio h] is the smallest queued priority, or [max_int] when [h]
    is empty. *)

val pop : 'a t -> 'a
(** [pop h] removes and returns the entry with the smallest priority,
    breaking ties by insertion order; read its priority with {!min_prio}
    first. Raises [Invalid_argument] when [h] is empty. *)

val min_count : 'a t -> int
(** [min_count h] is the number of entries sharing the smallest priority
    (the same-instant bucket); [0] when empty. O(n) scan — used only by
    non-FIFO schedule policies, never on the default path. *)

val pop_min_nth : 'a t -> int -> 'a
(** [pop_min_nth h n] removes and returns the [n]-th entry — 0-based, in
    insertion order — of the smallest-priority bucket, whose priority is
    {!min_prio}. [n] is clamped to the bucket, so [pop_min_nth h 0]
    behaves like {!pop}. O(n). Raises [Invalid_argument] when [h] is
    empty. *)

val clear : 'a t -> unit
(** [clear h] drops every entry and releases the arrays; handles of the
    dropped entries name nothing afterwards. *)
