(* Conservative parallel discrete-event runtime over topology shards.

   Each shard owns one [Sim.t] heap and is driven by a worker domain
   (several shards may share a domain round-robin). Cross-shard
   interaction happens exclusively through timestamped frames posted
   into bounded SPSC rings, one per (src, dst) shard pair. Safety is
   classic null-message / lower-bound-timestamp (LBTS) synchronization:

   - every shard publishes a monotone lower bound [lb] on the timestamp
     of any frame it will post in the future;
   - a frame posted on channel (j, i) always satisfies
     [ts >= lb_j + lookahead(j, i)], where the lookahead is the minimum
     link latency between the two shards (positive by construction);
   - shard [i] may execute an item at time [t] iff
     [t < min_j (lb_j + lookahead(j, i))] — its {e horizon}. The bounds
     are snapshotted {e before} draining the rings, so every frame below
     the horizon is guaranteed to have been staged already.

   The shard holding the globally minimal next timestamp always clears
   its own horizon (lookaheads are strictly positive), so the protocol
   is deadlock-free without explicit null-message circulation: published
   bounds are the null messages, exchanged through shared memory.

   Determinism: shard count and partition come from the topology, never
   from the worker count, and every merge is by the canonical key
   (timestamp, source shard, channel push order), with staged frames
   winning timestamp ties against local events. A run over S shards is
   therefore byte-identical whether 1 or N domains execute it. *)

type frame = { f_ts : int; f_run : unit -> unit }

(* Bounded SPSC ring with a producer-side overflow list. The producer
   never blocks on a full ring (its domain may be the one that is
   supposed to drain the peer, so spinning could self-deadlock); it
   parks the frame in [overflow] and caps its published lower bound so
   the consumer cannot outrun the parked frame. [stage] is the
   consumer-side holding heap: ring arrival order is push order, so
   (prio = ts, heap FIFO seq) realises the canonical per-channel merge
   key even when jitter makes timestamps non-monotone in push order. *)
type channel = {
  ring : frame option array;
  head : int Atomic.t; (* consumer cursor *)
  tail : int Atomic.t; (* producer cursor *)
  mutable overflow : frame list; (* producer-owned, newest first *)
  stage : frame Heap.t; (* consumer-owned *)
  look : int; (* min frame delay on this channel; max_int = unreachable *)
}

type shard = {
  idx : int;
  sim : Sim.t;
  inbox : channel array; (* inbox.(j): frames j -> idx *)
  outbox : channel array; (* outbox.(j): frames idx -> j *)
  lb : int Atomic.t; (* published send floor, monotone *)
  mutable last_pub : int;
  mutable ocap : int; (* lb cap from parked overflow frames *)
  mutable was_active : bool; (* counted in [work]? owner-only *)
  exec_count : int Atomic.t; (* events + frames executed (stats) *)
  post_count : int Atomic.t; (* frames posted (stats) *)
}

type t = {
  n : int;
  shards : shard array;
  chans : channel array array; (* chans.(src).(dst) *)
  (* Exact quiescence ledger: number of shards with executable work plus
     frames posted but not yet drained. Every transition increments
     before it decrements, so [work] over-counts transiently but reaches
     0 only at true global quiescence — and 0 is stable, giving a
     race-free termination test from any worker. *)
  work : int Atomic.t;
  stop_flag : bool Atomic.t;
  finished : bool Atomic.t;
  failure : exn option Atomic.t; (* first worker exception, re-raised *)
  mutable running : bool;
}

let default_ring = 4096

let sat_add a b = if a >= max_int - b then max_int else a + b

let create ?(ring_capacity = default_ring) ~lookahead sims =
  let n = Array.length sims in
  if n = 0 then invalid_arg "Shard.create: no shards";
  if Array.length lookahead <> n
     || Array.exists (fun row -> Array.length row <> n) lookahead
  then invalid_arg "Shard.create: lookahead matrix is not n x n";
  let cap =
    let rec pow2 c = if c >= ring_capacity then c else pow2 (c * 2) in
    pow2 64
  in
  Array.iteri
    (fun i row ->
       Array.iteri
         (fun j l ->
            if i <> j && l <= 0 then
              invalid_arg
                (Printf.sprintf
                   "Shard.create: lookahead %d -> %d is %d; conservative \
                    synchronization needs strictly positive cross-shard \
                    latency"
                   i j l))
         row)
    lookahead;
  let chans =
    Array.init n (fun src ->
        Array.init n (fun dst ->
            { ring = Array.make cap None; head = Atomic.make 0;
              tail = Atomic.make 0; overflow = []; stage = Heap.create ();
              look = (if src = dst then max_int else lookahead.(src).(dst)) }))
  in
  let shards =
    Array.init n (fun i ->
        { idx = i; sim = sims.(i);
          inbox = Array.init n (fun j -> chans.(j).(i));
          outbox = Array.init n (fun j -> chans.(i).(j));
          lb = Atomic.make 0; last_pub = 0; ocap = max_int;
          was_active = false; exec_count = Atomic.make 0;
          post_count = Atomic.make 0 })
  in
  { n; shards; chans; work = Atomic.make 0; stop_flag = Atomic.make false;
    finished = Atomic.make false; failure = Atomic.make None; running = false }

let shard_count t = t.n

let sim t i = t.shards.(i).sim

let executed t i = Atomic.get t.shards.(i).exec_count

let posted t i = Atomic.get t.shards.(i).post_count

let mask c = Array.length c.ring - 1

let try_push c fr =
  let tail = Atomic.get c.tail in
  let head = Atomic.get c.head in
  if tail - head >= Array.length c.ring then false
  else begin
    c.ring.(tail land mask c) <- Some fr;
    (* The atomic store publishes the slot write (release). *)
    Atomic.set c.tail (tail + 1);
    true
  end

let post t ~src ~dst ~ts f =
  if src = dst then Sim.at t.shards.(src).sim ts f
  else begin
    let sh = t.shards.(src) in
    let c = sh.outbox.(dst) in
    if c.look = max_int then
      invalid_arg
        (Printf.sprintf "Shard.post: no channel %d -> %d (lookahead absent)"
           src dst);
    (* In-flight accounting before the frame becomes visible, so [work]
       never dips through 0 while the frame exists. *)
    Atomic.incr t.work;
    Atomic.incr sh.post_count;
    let fr = { f_ts = ts; f_run = f } in
    if not (try_push c fr) then begin
      c.overflow <- fr :: c.overflow;
      (* The consumer cannot see parked frames: cap our published bound
         so its horizon stays below them until they reach the ring.
         [ts - look >= posting time >= current lb], so the cap never
         moves the published bound backward. *)
      let capv = fr.f_ts - c.look in
      if capv < sh.ocap then sh.ocap <- capv
    end
  end

(* Producer-side: move parked frames into the ring, oldest first, and
   lift the lb cap once everything is visible again. *)
let flush_overflow sh =
  let parked = ref false in
  Array.iter
    (fun c ->
       match c.overflow with
       | [] -> ()
       | frames ->
         let rec push_all = function
           | [] -> []
           | fr :: rest as l ->
             if try_push c fr then push_all rest else l
         in
         c.overflow <- List.rev (push_all (List.rev frames));
         if c.overflow <> [] then parked := true)
    sh.outbox;
  if not !parked then sh.ocap <- max_int

let publish_lb sh v =
  let v = if sh.ocap < v then sh.ocap else v in
  if v <> sh.last_pub then begin
    sh.last_pub <- v;
    Atomic.set sh.lb v
  end

(* Consumer-side: move every visible frame of [c] into its stage heap.
   Returns the number of frames drained. Only the owning worker touches
   [head] and [stage]. *)
let drain_channel t c =
  let tail = Atomic.get c.tail in
  let head = Atomic.get c.head in
  let n = tail - head in
  if n > 0 then begin
    for k = head to tail - 1 do
      let slot = k land mask c in
      (match c.ring.(slot) with
       | Some fr ->
         c.ring.(slot) <- None;
         Heap.push c.stage ~prio:fr.f_ts fr
       | None -> assert false)
    done;
    Atomic.set c.head tail;
    (* Frames left flight; they are now covered by the consumer's active
       state (the caller pre-marked itself active before draining). *)
    ignore (Atomic.fetch_and_add t.work (-n))
  end;
  n

(* Smallest staged frame across the inbox, canonical (ts, src) order:
   strict [<] over ascending source index realises the src tie-break. *)
let min_staged sh =
  let ts = ref max_int and ch = ref (-1) in
  Array.iteri
    (fun j c ->
       if j <> sh.idx then
         match Heap.peek_prio c.stage with
         | Some p when p < !ts ->
           ts := p;
           ch := j
         | _ -> ())
    sh.inbox;
  (!ts, !ch)

(* One scheduling round for [sh]: flush parked frames, snapshot the
   horizon, drain the inbox, then execute every item strictly below the
   horizon (and within [until]) in canonical merge order. Returns true
   when the round made progress (drained or executed something). *)
let round t sh ~until =
  let progress = ref false in
  flush_overflow sh;
  (* Pre-mark active when frames are visible, before their in-flight
     counts drop in [drain_channel] — keeps [work] from dipping to 0
     while the frames are being moved to the stage. *)
  let inbound =
    Array.exists
      (fun c ->
         c.look <> max_int && Atomic.get c.tail - Atomic.get c.head > 0)
      sh.inbox
  in
  if inbound && not sh.was_active then begin
    sh.was_active <- true;
    Atomic.incr t.work
  end;
  (* Snapshot bounds FIRST, then drain: any frame posted before our lb
     reads is visible to the drain; any frame posted after satisfies
     ts >= read lb + lookahead >= horizon. *)
  let horizon = ref max_int in
  Array.iteri
    (fun j c ->
       if j <> sh.idx && c.look <> max_int then begin
         let b = sat_add (Atomic.get t.shards.(j).lb) c.look in
         if b < !horizon then horizon := b
       end)
    sh.inbox;
  Array.iteri
    (fun j c ->
       if j <> sh.idx && c.look <> max_int then
         if drain_channel t c > 0 then progress := true)
    sh.inbox;
  let executed = ref 0 in
  let continue = ref true in
  while !continue do
    let f_ts, f_ch = min_staged sh in
    let l_ts =
      match Sim.peek_next sh.sim with Some p -> p | None -> max_int
    in
    let cand = if f_ts < l_ts then f_ts else l_ts in
    if cand = max_int || cand > until || cand >= !horizon then
      continue := false
    else begin
      (* Publish before executing: anything this item posts is stamped
         >= cand + lookahead, so [cand] is a valid send floor while the
         batch runs at this timestamp. *)
      publish_lb sh cand;
      (* Frames win timestamp ties against local events: a staged frame
         at t exists in every execution of this topology, so the rule is
         canonical across worker counts. *)
      if f_ts <= l_ts then begin
        match Heap.pop sh.inbox.(f_ch).stage with
        | Some (ts, fr) ->
          Sim.advance_to sh.sim ts;
          fr.f_run ()
        | None -> assert false
      end
      else ignore (Sim.step sh.sim);
      incr executed;
      if Sim.stopped sh.sim then begin
        (* Sim.stop from inside a sharded run stops the whole parallel
           run, as it stops [Sim.run] on a one-shard grid. *)
        Atomic.set t.stop_flag true;
        continue := false
      end
    end
  done;
  if !executed > 0 then begin
    progress := true;
    Atomic.fetch_and_add sh.exec_count !executed |> ignore
  end;
  (* Post-batch bound: the next candidate if executable, else the
     horizon (we may yet execute a frame arriving exactly there; any
     send it produces clears the horizon by one lookahead). *)
  let f_ts, _ = min_staged sh in
  let l_ts = match Sim.peek_next sh.sim with Some p -> p | None -> max_int in
  let cand = if f_ts < l_ts then f_ts else l_ts in
  let eff = if cand > until then max_int else cand in
  publish_lb sh (if eff < !horizon then eff else !horizon);
  (* Activity ledger: executable work pending <-> counted in [work]. *)
  let still_active = eff <> max_int in
  if sh.was_active && not still_active then begin
    sh.was_active <- false;
    Atomic.decr t.work
  end
  else if (not sh.was_active) && still_active then begin
    sh.was_active <- true;
    Atomic.incr t.work
  end;
  !progress

let worker t ~until ids =
  try
    let idle = ref 0 in
    while
      (not (Atomic.get t.finished))
      && (not (Atomic.get t.stop_flag))
      && Atomic.get t.failure = None
    do
      let progress = ref false in
      List.iter
        (fun i -> if round t t.shards.(i) ~until then progress := true)
        ids;
      if !progress then idle := 0
      else begin
        incr idle;
        if Atomic.get t.work = 0 then Atomic.set t.finished true
        else if !idle < 32 then Domain.cpu_relax ()
        else
          (* Oversubscribed (more domains than cores) or genuinely
             blocked: hand the core to whoever holds the work. *)
          Thread.yield ()
      end
    done
  with e ->
    ignore (Atomic.compare_and_set t.failure None (Some e));
    Atomic.set t.stop_flag true

let run ?(domains = 1) ?until t =
  if domains < 1 then invalid_arg "Shard.run: domains < 1";
  if t.running then invalid_arg "Shard.run: already running";
  t.running <- true;
  let until_v = match until with Some u -> u | None -> max_int in
  Atomic.set t.finished false;
  Atomic.set t.stop_flag false;
  Atomic.set t.failure None;
  (* Single-threaded prologue: rebuild the quiescence ledger (a previous
     bounded run may have left staged frames and parked overflow), reset
     stop latches and seed the published bounds. *)
  let work = ref 0 in
  Array.iter
    (fun sh ->
       Sim.clear_stopped sh.sim;
       (* Force the clock capability now so the global Clock id counter
          is never touched from a worker domain. *)
       ignore (Sim.clock sh.sim);
       let f_ts, _ = min_staged sh in
       let l_ts =
         match Sim.peek_next sh.sim with Some p -> p | None -> max_int
       in
       let cand = if f_ts < l_ts then f_ts else l_ts in
       sh.was_active <- cand <= until_v;
       if sh.was_active then incr work;
       Array.iteri
         (fun j c ->
            if j <> sh.idx then
              work :=
                !work + (Atomic.get c.tail - Atomic.get c.head)
                + List.length c.overflow)
         sh.outbox)
    t.shards;
  Atomic.set t.work !work;
  if !work = 0 then Atomic.set t.finished true;
  let nworkers = if domains > t.n then t.n else domains in
  let assignment =
    Array.init nworkers (fun w ->
        List.filter (fun i -> i mod nworkers = w) (List.init t.n Fun.id))
  in
  let others =
    Array.init (nworkers - 1) (fun w ->
        Domain.spawn (fun () -> worker t ~until:until_v assignment.(w + 1)))
  in
  worker t ~until:until_v assignment.(0);
  Array.iter Domain.join others;
  (* Epilogue, single-threaded again: classic [run ~until] clock
     semantics per shard — pending work beyond the horizon clamps the
     clock forward to [until]; an exhausted shard keeps the clock of its
     last event. *)
  (match until with
   | None -> ()
   | Some u ->
     if not (Atomic.get t.stop_flag) then
       Array.iter
         (fun sh ->
            let f_ts, _ = min_staged sh in
            let has_pending = f_ts <> max_int || Sim.pending sh.sim > 0 in
            if has_pending && Sim.now sh.sim < u then Sim.advance_to sh.sim u)
         t.shards);
  t.running <- false;
  match Atomic.get t.failure with None -> () | Some e -> raise e

let stop t = Atomic.set t.stop_flag true

let stopped t = Atomic.get t.stop_flag
