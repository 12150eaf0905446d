module Bb = Engine.Bytebuf
module Sim = Engine.Sim
module Proc = Engine.Proc

(* ---------- Heap ---------- *)

module Heap = Engine.Heap

let test_heap_basic () =
  let h = Heap.create ~dummy:"" in
  Tutil.check_bool "empty" true (Heap.is_empty h);
  Tutil.check_int "empty min_prio" max_int (Heap.min_prio h);
  List.iter (fun (p, v) -> ignore (Heap.push h ~prio:p v))
    [ (5, "five"); (1, "one"); (3, "three") ];
  Tutil.check_int "length" 3 (Heap.length h);
  Tutil.check_int "min_prio" 1 (Heap.min_prio h);
  let order = List.init 3 (fun _ -> Heap.pop h) in
  Alcotest.(check (list string)) "order" [ "one"; "three"; "five" ] order;
  Tutil.check_bool "empty again" true (Heap.is_empty h);
  Tutil.check_int "drained min_prio" max_int (Heap.min_prio h);
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Heap.pop: empty heap") (fun () ->
      ignore (Heap.pop h));
  Alcotest.check_raises "pop_min_nth on empty"
    (Invalid_argument "Heap.pop_min_nth: empty heap") (fun () ->
      ignore (Heap.pop_min_nth h 0))

let test_heap_fifo_ties () =
  let h = Heap.create ~dummy:0 in
  List.iter (fun v -> ignore (Heap.push h ~prio:7 v)) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> Heap.pop h) in
  Alcotest.(check (list int)) "fifo on equal priorities" [ 1; 2; 3; 4 ] order

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in nondecreasing priority order"
    ~count:200
    QCheck.(list small_int)
    (fun prios ->
       let h = Heap.create ~dummy:0 in
       List.iter (fun p -> ignore (Heap.push h ~prio:p p)) prios;
       let rec drain acc =
         if Heap.is_empty h then List.rev acc
         else begin
           let p = Heap.min_prio h in
           ignore (Heap.pop h);
           drain (p :: acc)
         end
       in
       let out = drain [] in
       out = List.sort compare prios)

(* Model-based check: random interleavings of push, pop, pop_min_nth and
   cancel against a reference list kept sorted by (priority, push order).
   Values are unique push indices, so every (priority, value) pair pins
   the exact entry returned, FIFO order on equal priorities included.
   [Cancel_live n] cancels the [n]-th queued entry of the reference list;
   [Cancel_gone n] cancels the handle of an entry that already left the
   queue: popped, or cancelled before (a second cancel), usually with its
   slab slot handed to a later push since. Neither may disturb another
   entry. *)
type heap_op =
  | Push of int
  | Pop
  | Pop_nth of int
  | Cancel_live of int
  | Cancel_gone of int

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun p -> Push p) (int_range 0 7));
        (2, return Pop);
        (1, map (fun n -> Pop_nth n) (int_range (-1) 4));
        (1, map (fun n -> Cancel_live n) (int_range 0 63));
        (1, map (fun n -> Cancel_gone n) (int_range 0 63)) ])

let heap_op_print = function
  | Push p -> Printf.sprintf "push %d" p
  | Pop -> "pop"
  | Pop_nth n -> Printf.sprintf "pop_min_nth %d" n
  | Cancel_live n -> Printf.sprintf "cancel live %d" n
  | Cancel_gone n -> Printf.sprintf "cancel gone %d" n

let heap_model ops =
  let h = Heap.create ~dummy:(-1) in
  (* Reference: (prio, value) pairs, sorted by prio then push order. *)
  let model = ref [] and next = ref 0 in
  (* Handles by value, and the values no longer queued. *)
  let handles = Hashtbl.create 64 and gone = ref [] in
  let bucket () =
    match !model with
    | [] -> []
    | (p, _) :: _ -> List.filter (fun (q, _) -> q = p) !model
  in
  (* Remove the [n]-th entry of the smallest bucket through [pop] and from
     the model: both must return it, or both be empty. *)
  let take pop n =
    match bucket () with
    | [] -> Heap.is_empty h
    | b ->
      let want = List.nth b (max 0 (min n (List.length b - 1))) in
      model := List.filter (fun e -> e != want) !model;
      gone := snd want :: !gone;
      let p = Heap.min_prio h in
      (p, pop ()) = want
  in
  List.for_all
    (fun op ->
       let agree =
         match op with
         | Push p ->
           let v = !next in
           incr next;
           Hashtbl.replace handles v (Heap.push h ~prio:p v);
           model :=
             List.stable_sort (fun (a, _) (b, _) -> compare a b)
               (!model @ [ (p, v) ]);
           true
         | Pop -> take (fun () -> Heap.pop h) 0
         | Pop_nth n -> take (fun () -> Heap.pop_min_nth h n) n
         | Cancel_live n ->
           (match !model with
            | [] -> ()
            | m ->
              let (_, v) as e = List.nth m (n mod List.length m) in
              Heap.cancel h (Hashtbl.find handles v);
              model := List.filter (fun x -> x != e) !model;
              gone := v :: !gone);
           true
         | Cancel_gone n ->
           (match !gone with
            | [] -> ()
            | g ->
              let v = List.nth g (n mod List.length g) in
              Heap.cancel h (Hashtbl.find handles v));
           true
       in
       agree
       && Heap.length h = List.length !model
       && Heap.min_prio h
          = (match !model with [] -> max_int | (p, _) :: _ -> p)
       && Heap.min_count h = List.length (bucket ()))
    ops
  (* Drain: the queued entries come out exactly as the model lists them. *)
  && List.for_all
       (fun e ->
          let p = Heap.min_prio h in
          (p, Heap.pop h) = e)
       !model
  && Heap.is_empty h

(* The four kinds of handle [cancel] meets, each pinned: a queued entry
   leaves at once; a popped entry's handle, a second cancel and a handle
   whose slot a later push reused all leave the queue untouched. *)
let test_heap_cancel () =
  let h = Heap.create ~dummy:"" in
  let a = Heap.push h ~prio:5 "a" in
  let b = Heap.push h ~prio:3 "b" in
  let c = Heap.push h ~prio:3 "c" in
  Heap.cancel h b;
  Tutil.check_int "live handle: entry leaves" 2 (Heap.length h);
  Heap.cancel h b;
  Tutil.check_int "second cancel: no-op" 2 (Heap.length h);
  Alcotest.(check string) "popped is c" "c" (Heap.pop h);
  Heap.cancel h c;
  Tutil.check_int "popped handle: no-op" 1 (Heap.length h);
  (* The slot of [c] (freed last) is the next one handed out. *)
  let d = Heap.push h ~prio:1 "d" in
  Heap.cancel h c;
  Heap.cancel h b;
  Tutil.check_int "reused slot: stale handles are no-ops" 2 (Heap.length h);
  Alcotest.(check (list string)) "order kept" [ "d"; "a" ]
    (List.init 2 (fun _ -> Heap.pop h));
  Heap.cancel h a;
  Heap.cancel h d;
  Tutil.check_bool "drained" true (Heap.is_empty h);
  (* Cancelling everything drains a heap that grew, and its handles stay
     inert once the released arrays are rebuilt. *)
  let hs = List.init 5000 (fun i -> Heap.push h ~prio:(i mod 17) "x") in
  List.iter (Heap.cancel h) hs;
  Tutil.check_bool "all cancelled" true (Heap.is_empty h);
  ignore (Heap.push h ~prio:0 "y");
  List.iter (Heap.cancel h) hs;
  Tutil.check_int "old handles after release" 1 (Heap.length h)

let prop_heap_model_short =
  QCheck.Test.make ~name:"heap model: small sizes"
    ~count:500
    QCheck.(make ~print:(Print.list heap_op_print)
              Gen.(list_size (int_range 0 14) heap_op_gen))
    heap_model

let prop_heap_model_long =
  QCheck.Test.make ~name:"heap model: across growth"
    ~count:100
    QCheck.(make ~print:(Print.list heap_op_print)
              Gen.(
                map2 (fun fill ops -> List.map (fun p -> Push p) fill @ ops)
                  (list_size (int_range 60 90) (int_range 0 7))
                  (list_size (int_range 50 250) heap_op_gen)))
    heap_model

(* Queued values are tracked through weak pointers only: after
   [Gc.full_major] a value is alive iff something still references it.
   The helpers are not inlined so no stack slot of the test keeps one. *)
let[@inline never] push_tracked h w ~prio i =
  let b = Bytes.make 16 'x' in
  Weak.set w i (Some b);
  Heap.push h ~prio b

let[@inline never] pop_n h n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Heap.pop h))
  done

let alive w =
  Gc.full_major ();
  let n = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr n
  done;
  !n

let test_heap_releases_popped () =
  let h = Heap.create ~dummy:Bytes.empty in
  let w = Weak.create 100 in
  for i = 0 to 99 do
    ignore (push_tracked h w ~prio:((i * 37) mod 11) i)
  done;
  pop_n h 100;
  Tutil.check_int "fired values still alive after a drain" 0 (alive w);
  ignore (Sys.opaque_identity h);
  (* The first entry pushed is the minimum; growing past 64 slots must
     not fill the new slots with it. *)
  let h = Heap.create ~dummy:Bytes.empty in
  let w = Weak.create 65 in
  for i = 0 to 64 do
    ignore (push_tracked h w ~prio:i i)
  done;
  pop_n h 1;
  Tutil.check_int "popped minimum released after growth" 64 (alive w);
  Tutil.check_bool "the popped one is the dead one" false (Weak.check w 0);
  ignore (Sys.opaque_identity h)

let test_heap_releases_cancelled () =
  let h = Heap.create ~dummy:Bytes.empty in
  let w = Weak.create 10 in
  let hs = Array.init 10 (fun i -> push_tracked h w ~prio:(i mod 3) i) in
  Heap.cancel h hs.(4);
  Heap.cancel h hs.(0);
  Tutil.check_int "alive after two cancels" 8 (alive w);
  Tutil.check_bool "entry 4 released" false (Weak.check w 4);
  Tutil.check_bool "entry 0 released" false (Weak.check w 0);
  ignore (Sys.opaque_identity h)

let test_heap_releases_pop_min_nth () =
  let h = Heap.create ~dummy:Bytes.empty in
  let w = Weak.create 5 in
  for i = 0 to 4 do
    ignore (push_tracked h w ~prio:3 i)
  done;
  (* The newest entry of the bucket sits in the last slot: removing it
     vacates that slot without refilling it. *)
  ignore (Sys.opaque_identity (Heap.pop_min_nth h 4));
  ignore (Sys.opaque_identity (Heap.pop_min_nth h 1));
  Tutil.check_int "alive after two removals" 3 (alive w);
  Tutil.check_bool "entry 4 released" false (Weak.check w 4);
  Tutil.check_bool "entry 1 released" false (Weak.check w 1);
  ignore (Sys.opaque_identity h)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Engine.Rng.create 7 and b = Engine.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Engine.Rng.int64 a)
      (Engine.Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Engine.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Engine.Rng.int r 10 in
    Tutil.check_bool "in range" true (v >= 0 && v < 10);
    let f = Engine.Rng.float r 2.5 in
    Tutil.check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_bool_bias () =
  let r = Engine.Rng.create 3 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Engine.Rng.bool r 0.25 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  Tutil.check_bool "bernoulli(0.25) frequency" true
    (ratio > 0.22 && ratio < 0.28)

let test_rng_split_independent () =
  let r = Engine.Rng.create 9 in
  let s = Engine.Rng.split r in
  Tutil.check_bool "split streams differ" true
    (Engine.Rng.int64 r <> Engine.Rng.int64 s)

(* Minor-heap words allocated per call of [f], over [n] calls. *)
let minor_words_per_call ?(n = 1000) f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A reference splitmix64, written here with plain (boxed) [int64]
   arithmetic: every stream [Rng] hands out must match it draw for draw. *)
module Ref_rng = struct
  type t = { mutable s : int64 }

  let gamma = 0x9E3779B97F4A7C15L

  let create seed =
    { s = Int64.mul (Int64.of_int (seed + 1)) 0x2545F4914F6CDD1DL }

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int64 t =
    t.s <- Int64.add t.s gamma;
    mix t.s

  let split t = { s = int64 t }
  let stream t i =
    { s = mix (Int64.add t.s (Int64.mul (Int64.of_int (i + 1)) gamma)) }

  let int t bound =
    Int64.to_int (Int64.shift_right_logical (int64 t) 2) mod bound

  let float t x =
    x *. (Int64.to_float (Int64.shift_right_logical (int64 t) 11)
          /. 9007199254740992.0)
end

let test_rng_matches_reference () =
  let module R = Engine.Rng in
  let draws = 10_000 in
  let same name r q =
    for k = 1 to draws do
      let ok =
        match k mod 5 with
        | 0 -> R.int64 r = Ref_rng.int64 q
        | 1 -> R.int r 1000 = Ref_rng.int q 1000
        | 4 ->
          (* Every power-of-two bound, 2^0 to 2^61. *)
          let bound = 1 lsl (k / 5 mod 62) in
          R.int r bound = Ref_rng.int q bound
        | 2 -> Int64.bits_of_float (R.float r 2.5)
               = Int64.bits_of_float (Ref_rng.float q 2.5)
        | _ -> R.bool r 0.3 = (Ref_rng.float q 1.0 < 0.3)
      in
      if not ok then Alcotest.failf "%s: draw %d differs" name k
    done
  in
  List.iter
    (fun seed ->
       let r = R.create seed and q = Ref_rng.create seed in
       let rs = R.stream r 5 and qs = Ref_rng.stream q 5 in
       let rs0 = R.stream r 0 and qs0 = Ref_rng.stream q 0 in
       let rc = R.split r and qc = Ref_rng.split q in
       same (Printf.sprintf "seed %d" seed) r q;
       same (Printf.sprintf "seed %d split" seed) rc qc;
       same (Printf.sprintf "seed %d stream 5" seed) rs qs;
       same (Printf.sprintf "seed %d stream 0" seed) rs0 qs0)
    [ 0; 1; 7; 42; -3; max_int ]

let test_rng_draws_allocate_nothing () =
  let r = Engine.Rng.create 5 in
  let sink = ref 0 in
  Alcotest.(check (float 0.0)) "int" 0.0
    (minor_words_per_call (fun () -> sink := !sink + Engine.Rng.int r 97));
  Alcotest.(check (float 0.0)) "bool" 0.0
    (minor_words_per_call (fun () ->
         if Engine.Rng.bool r 0.5 then incr sink));
  (* A float returned across the module boundary is boxed: two words,
     the result itself. The draw allocates nothing more. *)
  Alcotest.(check (float 0.0)) "float: its boxed result only" 2.0
    (minor_words_per_call (fun () ->
         if Engine.Rng.float r 1.0 < 0.5 then incr sink));
  ignore (Sys.opaque_identity !sink)

(* ---------- Sim ---------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let trace = ref [] in
  Sim.at sim 30 (fun () -> trace := 30 :: !trace);
  Sim.at sim 10 (fun () -> trace := 10 :: !trace);
  Sim.at sim 20 (fun () -> trace := 20 :: !trace);
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !trace);
  Tutil.check_int "clock at last event" 30 (Sim.now sim)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let trace = ref [] in
  for i = 1 to 5 do
    Sim.at sim 42 (fun () -> trace := i :: !trace)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ]
    (List.rev !trace)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.at sim 100 (fun () -> fired := 100 :: !fired);
  Sim.at sim 200 (fun () -> fired := 200 :: !fired);
  Sim.run sim ~until:150;
  Alcotest.(check (list int)) "only first fired" [ 100 ] !fired;
  Tutil.check_int "clock clamped" 150 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check (list int)) "rest fired on resume" [ 200; 100 ] !fired

let test_sim_past_raises () =
  let sim = Sim.create () in
  Sim.at sim 50 (fun () ->
      Alcotest.check_raises "past scheduling rejected"
        (Invalid_argument "Sim.at: time 10 is in the past (now 50)")
        (fun () -> Sim.at sim 10 ignore));
  Sim.run sim

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let hits = ref 0 in
  Sim.after sim 10 (fun () ->
      Sim.after sim 10 (fun () ->
          incr hits;
          Tutil.check_int "nested time" 20 (Sim.now sim)));
  Sim.run sim;
  Tutil.check_int "nested fired" 1 !hits

(* Exit-clock discipline (see Sim.run's doc): every exit is monotone.
   The old until-branch assigned the clock unconditionally, so resuming a
   stopped simulator with a smaller [until] rewound virtual time. *)
let test_sim_exit_clock_monotone () =
  let sim = Sim.create () in
  Sim.at sim 100 (fun () -> Sim.stop sim);
  Sim.at sim 300 (fun () -> ());
  Sim.run sim;
  Tutil.check_int "stop freezes at the stopping event" 100 (Sim.now sim);
  Sim.run sim ~until:50;
  Tutil.check_int "until below the clock does not rewind" 100 (Sim.now sim);
  Sim.run sim ~until:200;
  Tutil.check_int "until ahead advances the idle clock" 200 (Sim.now sim);
  Sim.run sim ~until:150;
  Tutil.check_int "still no rewind" 200 (Sim.now sim);
  Sim.run sim;
  Tutil.check_int "drained at the last event" 300 (Sim.now sim)

(* Padico.reset (Lifecycle) must drop undelivered events: a stopped
   scenario's stale timers would otherwise fire into the next scenario's
   registries through any shared clock. *)
let test_reset_clears_pending_events () =
  let sim = Sim.create () in
  Sim.after sim 10 (fun () -> ());
  Sim.after sim 20 (fun () -> ());
  Tutil.check_int "events queued" 2 (Sim.pending sim);
  Engine.Lifecycle.reset_registries ();
  Tutil.check_int "reset dropped undelivered events" 0 (Sim.pending sim)

let test_sim_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Sim.after sim 1 (fun () ->
        incr count;
        if !count = 3 then Sim.stop sim)
  done;
  Sim.run sim;
  Tutil.check_int "stopped after 3" 3 !count;
  Sim.run sim;
  Tutil.check_int "resumable" 10 !count

(* ---------- Proc ---------- *)

let test_proc_sleep () =
  let sim = Sim.create () in
  let t_end = ref 0 in
  let h =
    Proc.spawn sim (fun () ->
        Proc.sleep sim 100;
        Proc.sleep sim 200;
        t_end := Sim.now sim)
  in
  Sim.run sim;
  Tutil.assert_done h;
  Tutil.check_int "slept 300" 300 !t_end

let test_proc_ivar () =
  let sim = Sim.create () in
  let iv = Proc.Ivar.create () in
  let got = ref 0 in
  let reader =
    Proc.spawn sim (fun () -> got := Proc.Ivar.read iv)
  in
  let _writer =
    Proc.spawn sim (fun () ->
        Proc.sleep sim 50;
        Proc.Ivar.fill iv 42)
  in
  Sim.run sim;
  Tutil.assert_done reader;
  Tutil.check_int "ivar value" 42 !got;
  Tutil.check_bool "filled" true (Proc.Ivar.is_filled iv);
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Proc.Ivar.fill iv 1)

let test_proc_ivar_read_after_fill () =
  let sim = Sim.create () in
  let iv = Proc.Ivar.create () in
  Proc.Ivar.fill iv "x";
  let got = ref "" in
  let h = Proc.spawn sim (fun () -> got := Proc.Ivar.read iv) in
  Sim.run sim;
  Tutil.assert_done h;
  Tutil.check_string "immediate read" "x" !got

let test_proc_mailbox () =
  let sim = Sim.create () in
  let mb = Proc.Mailbox.create () in
  let received = ref [] in
  let consumer =
    Proc.spawn sim (fun () ->
        for _ = 1 to 3 do
          received := Proc.Mailbox.recv mb :: !received
        done)
  in
  let _producer =
    Proc.spawn sim (fun () ->
        Proc.Mailbox.send mb 1;
        Proc.sleep sim 10;
        Proc.Mailbox.send mb 2;
        Proc.Mailbox.send mb 3)
  in
  Sim.run sim;
  Tutil.assert_done consumer;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let test_proc_semaphore_mutex () =
  let sim = Sim.create () in
  let sem = Proc.Semaphore.create 1 in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let worker () =
    Proc.Semaphore.acquire sem;
    incr inside;
    if !inside > !max_inside then max_inside := !inside;
    Proc.sleep sim 10;
    decr inside;
    Proc.Semaphore.release sem
  in
  let hs = List.init 5 (fun i -> Proc.spawn sim ~name:(string_of_int i) worker) in
  Sim.run sim;
  List.iter Tutil.assert_done hs;
  Tutil.check_int "mutual exclusion" 1 !max_inside

let test_proc_join () =
  let sim = Sim.create () in
  let child =
    Proc.spawn sim (fun () -> Proc.sleep sim 100)
  in
  let after_join = ref 0 in
  let parent =
    Proc.spawn sim (fun () ->
        Proc.join sim child;
        after_join := Sim.now sim)
  in
  Sim.run sim;
  Tutil.assert_done parent;
  Tutil.check_int "joined after child" 100 !after_join

let test_proc_join_error_propagates () =
  let sim = Sim.create () in
  let child = Proc.spawn sim (fun () -> failwith "boom") in
  let caught = ref false in
  let parent =
    Proc.spawn sim (fun () ->
        try Proc.join sim child with Failure _ -> caught := true)
  in
  Sim.run sim;
  Tutil.assert_done parent;
  Tutil.check_bool "exception re-raised in joiner" true !caught

(* ---------- Bytebuf ---------- *)

let test_bytebuf_sub_and_blit () =
  let b = Tutil.pattern_buf ~seed:1 64 in
  let s = Bb.sub b 16 32 in
  Tutil.check_int "sub length" 32 (Bb.length s);
  Tutil.check_bool "sub shares data" true (Bb.get s 0 = Bb.get b 16);
  let d = Bb.create 32 in
  Bb.blit ~src:s ~src_off:0 ~dst:d ~dst_off:0 ~len:32;
  Tutil.check_bool "blit copies" true (Bb.equal s d);
  Alcotest.check_raises "oob sub"
    (Invalid_argument "Bytebuf.sub: off=60 len=10 in buffer of 64") (fun () ->
      ignore (Bb.sub b 60 10))

let test_bytebuf_concat_split () =
  let a = Tutil.pattern_buf ~seed:2 10 in
  let b = Tutil.pattern_buf ~seed:3 20 in
  let c = Bb.concat [ a; b ] in
  Tutil.check_int "concat length" 30 (Bb.length c);
  let x, y = Bb.split c 10 in
  Tutil.check_bool "split left" true (Bb.equal a x);
  Tutil.check_bool "split right" true (Bb.equal b y)

let test_bytebuf_ints () =
  let b = Bb.create 32 in
  Bb.set_u16 b 0 0xBEEF;
  Bb.set_u32 b 4 0xDEAD1234;
  Bb.set_i64 b 8 (-123456789L);
  Bb.set_u8 b 16 0xAB;
  Tutil.check_int "u16" 0xBEEF (Bb.get_u16 b 0);
  Tutil.check_int "u32" 0xDEAD1234 (Bb.get_u32 b 4);
  Alcotest.(check int64) "i64" (-123456789L) (Bb.get_i64 b 8);
  Tutil.check_int "u8" 0xAB (Bb.get_u8 b 16)

let test_bytebuf_copy_counter () =
  Bb.reset_copy_counter ();
  let a = Bb.create 100 in
  let b = Bb.copy a in
  ignore b;
  Tutil.check_int "counted copy" 100 (Bb.copies_performed ());
  let c = Bb.create 100 in
  Bb.blit_dma ~src:a ~src_off:0 ~dst:c ~dst_off:0 ~len:100;
  Tutil.check_int "dma not counted" 100 (Bb.copies_performed ())

let prop_bytebuf_string_roundtrip =
  QCheck.Test.make ~name:"of_string/to_string roundtrip" ~count:200
    QCheck.string (fun s -> Bb.to_string (Bb.of_string s) = s)

let prop_bytebuf_checksum_sensitive =
  QCheck.Test.make ~name:"checksum changes when a byte changes" ~count:100
    QCheck.(string_of_size Gen.(int_range 1 200))
    (fun s ->
       let b = Bb.of_string s in
       let before = Bb.checksum b in
       let i = String.length s / 2 in
       Bb.set_u8 b i (Bb.get_u8 b i lxor 0x5a);
       Bb.checksum b <> before)

(* [equal] compares eight bytes at a time; check it against a byte-wise
   reference on sub-slices at non-zero offsets inside differently padded
   buffers, with one differing byte at every position: QCheck over lengths
   0-40, and 4 KiB (a bcast body) as a unit case. *)
let equal_matches_bytewise s oa ob =
  let byte_equal a b =
    Bb.length a = Bb.length b
    &&
    let rec go i =
      i >= Bb.length a || (Bb.get a i = Bb.get b i && go (i + 1))
    in
    go 0
  in
  let slice ~pad off =
    let n = String.length s in
    let base = Bb.of_string (String.make (off + n + 9) pad) in
    let b = Bb.sub base off n in
    String.iteri (fun i c -> Bb.set b i c) s;
    b
  in
  let a = slice ~pad:'\000' oa and b = slice ~pad:'\255' ob in
  let n = String.length s in
  let ok = ref (Bb.equal a b && byte_equal a b) in
  if n > 0 then ok := !ok && not (Bb.equal a (Bb.sub b 0 (n - 1)));
  for i = 0 to n - 1 do
    let c = Bb.get_u8 b i in
    Bb.set_u8 b i (c lxor 0x01);
    ok := !ok && Bb.equal a b = byte_equal a b && not (Bb.equal a b);
    Bb.set_u8 b i c
  done;
  !ok

let prop_bytebuf_equal_bytewise =
  QCheck.Test.make ~name:"equal = byte-wise reference" ~count:300
    QCheck.(
      triple (string_of_size Gen.(int_range 0 40)) (int_range 0 9)
        (int_range 0 9))
    (fun (s, oa, ob) -> equal_matches_bytewise s oa ob)

let test_bytebuf_equal_4k () =
  let s = Bb.to_string (Tutil.pattern_buf ~seed:9 4096) in
  Tutil.check_bool "offsets 1/7" true (equal_matches_bytewise s 1 7);
  Tutil.check_bool "offsets 0/3" true (equal_matches_bytewise s 0 3)

(* [checksum] must change for every single-bit flip: enumerated over
   lengths 0-40 at slice offsets 0-7 (a bit flip in the top bits of the
   last word is what a plain word-wise FNV cut to 62 bits would miss).
   The slice's offset in its backing buffer must not matter. *)
let test_checksum_every_bit_flip () =
  let reference =
    Array.init 41 (fun n -> Bb.checksum (Tutil.pattern_buf ~seed:5 n))
  in
  for n = 0 to 40 do
    for off = 0 to 7 do
      let base = Bb.create (off + n + 3) in
      Bb.fill_pattern base ~seed:77;
      let b = Bb.sub base off n in
      Bb.blit ~src:(Tutil.pattern_buf ~seed:5 n) ~src_off:0 ~dst:b ~dst_off:0
        ~len:n;
      let c = Bb.checksum b in
      if c <> reference.(n) then
        Alcotest.failf "length %d: checksum depends on offset %d" n off;
      if c < 0 then Alcotest.failf "length %d: negative checksum" n;
      for bit = 0 to (8 * n) - 1 do
        let i = bit / 8 in
        let v = Bb.get_u8 b i in
        Bb.set_u8 b i (v lxor (1 lsl (bit land 7)));
        if Bb.checksum b = c then
          Alcotest.failf "length %d offset %d: flip of bit %d unseen" n off bit;
        Bb.set_u8 b i v
      done
    done
  done

(* [fill_pattern] and the integer accessors against byte-wise references,
   at every position of slices at offsets 0-7. *)
let test_fill_pattern_bytewise () =
  List.iter
    (fun n ->
       for off = 0 to 7 do
         List.iter
           (fun seed ->
              let base = Bb.create (off + n + 1) in
              Bb.fill_zero base;
              Bb.set_u8 base (off + n) 0xA5;
              Bb.fill_pattern (Bb.sub base off n) ~seed;
              for i = 0 to n - 1 do
                if Bb.get_u8 base (off + i) <> (seed + (31 * i)) land 0xff then
                  Alcotest.failf "n=%d off=%d seed=%d: byte %d" n off seed i
              done;
              for i = 0 to off - 1 do
                if Bb.get_u8 base i <> 0 then
                  Alcotest.failf "n=%d off=%d: wrote before the slice" n off
              done;
              if Bb.get_u8 base (off + n) <> 0xA5 then
                Alcotest.failf "n=%d off=%d: wrote past the slice" n off)
           [ 0; 1; 3; 255; 256; -7; 1_000_003 ]
       done)
    [ 0; 1; 7; 8; 31; 255; 256; 257; 511; 512; 513; 1000; 4096; 5000 ]

let le_bytes b i k =
  let v = ref 0 in
  for j = k - 1 downto 0 do
    v := (!v lsl 8) lor Bb.get_u8 b (i + j)
  done;
  !v

let test_accessors_bytewise () =
  let n = 24 in
  let rng = Engine.Rng.create 3 in
  for off = 0 to 7 do
    let base = Bb.create (off + n + 8) in
    Bb.fill_random base rng;
    let b = Bb.sub base off n in
    let check_rw name k get set value =
      for i = 0 to n - k do
        if get b i <> le_bytes b i k then
          Alcotest.failf "%s get at off=%d i=%d" name off i;
        let before = Bb.to_string base in
        set b i value;
        let after = Bb.to_string base in
        for j = 0 to String.length after - 1 do
          let want =
            if j >= off + i && j < off + i + k then
              (value asr (8 * (j - off - i))) land 0xff
            else Char.code before.[j]
          in
          if Char.code after.[j] <> want then
            Alcotest.failf "%s set at off=%d i=%d: byte %d" name off i j
        done
      done;
      List.iter
        (fun i ->
           (match get b i with
            | _ -> Alcotest.failf "%s get accepted i=%d" name i
            | exception Invalid_argument _ -> ());
           match set b i value with
           | () -> Alcotest.failf "%s set accepted i=%d" name i
           | exception Invalid_argument _ -> ())
        [ -1; n - k + 1; n ]
    in
    check_rw "u16" 2 Bb.get_u16 Bb.set_u16 0xBEEF;
    check_rw "u32" 4 Bb.get_u32 Bb.set_u32 0xDEAD1234;
    check_rw "int" 8 Bb.get_int Bb.set_int (-0x123456789ABCDE);
    check_rw "i64 as int" 8
      (fun b i -> Int64.to_int (Bb.get_i64 b i))
      (fun b i v -> Bb.set_i64 b i (Int64.of_int v))
      0x0123456789ABCDE
  done

let test_bytebuf_kernels_allocate_nothing () =
  let b = Tutil.pattern_buf ~seed:1 4100 in
  let s = Bb.sub b 3 4093 in
  let sink = ref 0 in
  let zero name f =
    Alcotest.(check (float 0.0)) name 0.0 (minor_words_per_call f)
  in
  zero "checksum" (fun () -> sink := !sink + Bb.checksum s);
  zero "fill_pattern" (fun () -> Bb.fill_pattern s ~seed:!sink);
  zero "get_u16" (fun () -> sink := !sink + Bb.get_u16 s 7);
  zero "set_u16" (fun () -> Bb.set_u16 s 7 !sink);
  zero "get_u32" (fun () -> sink := !sink + Bb.get_u32 s 9);
  zero "set_u32" (fun () -> Bb.set_u32 s 9 !sink);
  zero "get_int" (fun () -> sink := !sink + Bb.get_int s 11);
  zero "set_int" (fun () -> Bb.set_int s 11 !sink);
  ignore (Sys.opaque_identity !sink)

(* ---------- Stats ---------- *)

let test_stats_summary () =
  let s = Engine.Stats.Summary.create () in
  List.iter (Engine.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Tutil.check_int "n" 4 (Engine.Stats.Summary.n s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Engine.Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Engine.Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Engine.Stats.Summary.max s);
  Tutil.check_bool "stddev" true
    (abs_float (Engine.Stats.Summary.stddev s -. 1.2909944487) < 1e-6)

let test_stats_histogram () =
  let h = Engine.Stats.Histogram.create () in
  List.iter (Engine.Stats.Histogram.add h) [ 1; 2; 4; 8; 1000 ];
  Tutil.check_int "count" 5 (Engine.Stats.Histogram.count h);
  Tutil.check_bool "p50 small" true (Engine.Stats.Histogram.percentile h 0.5 < 8);
  Tutil.check_bool "p100 covers max" true
    (Engine.Stats.Histogram.percentile h 1.0 >= 1000)

(* Bucket i of the histogram holds values of bit-width i, i.e. [2^(i-1),
   2^i); [percentile] answers the inclusive upper bound 2^i - 1 of the
   bucket reaching the requested rank. These tests pin that contract at the
   boundaries. *)
let test_stats_histogram_powers_of_two () =
  let module H = Engine.Stats.Histogram in
  (* A power of two 2^k has bit-width k+1, so its reported upper bound is
     2^(k+1) - 1 — one bucket above 2^k - 1. *)
  List.iter
    (fun k ->
       let h = H.create () in
       H.add h (1 lsl k);
       Tutil.check_int
         (Printf.sprintf "p100 of singleton 2^%d" k)
         ((1 lsl (k + 1)) - 1)
         (H.percentile h 1.0))
    [ 0; 1; 4; 10; 20 ];
  (* One below a power of two stays in the lower bucket: its bound is
     exactly itself. *)
  let h = H.create () in
  H.add h 1023;
  Tutil.check_int "p100 of 1023" 1023 (H.percentile h 1.0);
  (* Zero has bit-width 0: bucket 0, bound 0. *)
  let h = H.create () in
  H.add h 0;
  Tutil.check_int "p100 of 0" 0 (H.percentile h 1.0);
  (* Negative values are clamped to bucket 0 rather than crashing. *)
  let h = H.create () in
  H.add h (-5);
  Tutil.check_int "negative clamps to 0" 0 (H.percentile h 1.0)

let test_stats_histogram_empty () =
  let module H = Engine.Stats.Histogram in
  let h = H.create () in
  Tutil.check_int "count" 0 (H.count h);
  Tutil.check_int "p0" 0 (H.percentile h 0.0);
  Tutil.check_int "p50" 0 (H.percentile h 0.5);
  Tutil.check_int "p100" 0 (H.percentile h 1.0);
  Tutil.check_string "pp prints nothing" ""
    (Format.asprintf "%a" H.pp h)

let test_stats_histogram_p0_p100 () =
  let module H = Engine.Stats.Histogram in
  let h = H.create () in
  List.iter (H.add h) [ 1; 6; 1000 ];
  (* q = 0 still answers the lowest occupied bucket (rank clamps to 1). *)
  Tutil.check_int "p0 = first bucket bound" 1 (H.percentile h 0.0);
  (* q = 1 answers the highest occupied bucket: 1000 has bit-width 10. *)
  Tutil.check_int "p100 = last bucket bound" 1023 (H.percentile h 1.0);
  (* Ranks are inclusive: with 3 samples, q = 1/3 is the first sample. *)
  Tutil.check_int "p33 inclusive" 1 (H.percentile h (1.0 /. 3.0));
  Tutil.check_int "p34 next bucket" 7 (H.percentile h 0.34)

let test_stats_histogram_pp () =
  let module H = Engine.Stats.Histogram in
  let h = H.create () in
  List.iter (H.add h) [ 1; 3; 3; 1000 ];
  let out = Format.asprintf "%a" H.pp h in
  (* Buckets print as exclusive upper bounds with their counts. *)
  Tutil.check_string "bucket lines" "[<2] 1\n[<4] 2\n[<1024] 1\n" out

let test_stats_bandwidth () =
  Alcotest.(check (float 1e-9)) "100MB in 1s" 100.0
    (Engine.Stats.bandwidth_mb_s ~bytes_transferred:100_000_000
       ~elapsed_ns:1_000_000_000)

let () =
  Alcotest.run "engine"
    [ ("heap",
       [ Alcotest.test_case "basic order" `Quick test_heap_basic;
         Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
         Alcotest.test_case "drained heap releases values" `Quick
           test_heap_releases_popped;
         Alcotest.test_case "pop_min_nth releases its slot" `Quick
           test_heap_releases_pop_min_nth;
         Alcotest.test_case "cancel: live, popped, twice, reused slot" `Quick
           test_heap_cancel;
         Alcotest.test_case "cancel releases the value" `Quick
           test_heap_releases_cancelled ]);
      Tutil.qsuite "heap-props"
        [ prop_heap_sorts; prop_heap_model_short; prop_heap_model_long ];
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "bernoulli bias" `Quick test_rng_bool_bias;
         Alcotest.test_case "split" `Quick test_rng_split_independent;
         Alcotest.test_case "matches a reference splitmix64" `Quick
           test_rng_matches_reference;
         Alcotest.test_case "draws allocate nothing" `Quick
           test_rng_draws_allocate_nothing ]);
      ("sim",
       [ Alcotest.test_case "ordering" `Quick test_sim_ordering;
         Alcotest.test_case "same-time fifo" `Quick test_sim_same_time_fifo;
         Alcotest.test_case "until" `Quick test_sim_until;
         Alcotest.test_case "past raises" `Quick test_sim_past_raises;
         Alcotest.test_case "nested" `Quick test_sim_nested_scheduling;
         Alcotest.test_case "stop/resume" `Quick test_sim_stop;
         Alcotest.test_case "exit clock monotone" `Quick
           test_sim_exit_clock_monotone;
         Alcotest.test_case "reset clears events" `Quick
           test_reset_clears_pending_events ]);
      ("proc",
       [ Alcotest.test_case "sleep" `Quick test_proc_sleep;
         Alcotest.test_case "ivar" `Quick test_proc_ivar;
         Alcotest.test_case "ivar pre-filled" `Quick
           test_proc_ivar_read_after_fill;
         Alcotest.test_case "mailbox" `Quick test_proc_mailbox;
         Alcotest.test_case "semaphore mutex" `Quick test_proc_semaphore_mutex;
         Alcotest.test_case "join" `Quick test_proc_join;
         Alcotest.test_case "join error" `Quick test_proc_join_error_propagates
       ]);
      ("bytebuf",
       [ Alcotest.test_case "sub/blit" `Quick test_bytebuf_sub_and_blit;
         Alcotest.test_case "concat/split" `Quick test_bytebuf_concat_split;
         Alcotest.test_case "integer accessors" `Quick test_bytebuf_ints;
         Alcotest.test_case "copy counter" `Quick test_bytebuf_copy_counter;
         Alcotest.test_case "equal on 4 KiB" `Quick test_bytebuf_equal_4k;
         Alcotest.test_case "checksum sees every bit flip" `Quick
           test_checksum_every_bit_flip;
         Alcotest.test_case "fill_pattern = byte-wise reference" `Quick
           test_fill_pattern_bytewise;
         Alcotest.test_case "accessors = byte-wise reference" `Quick
           test_accessors_bytewise;
         Alcotest.test_case "kernels allocate nothing" `Quick
           test_bytebuf_kernels_allocate_nothing ]);
      Tutil.qsuite "bytebuf-props"
        [ prop_bytebuf_string_roundtrip; prop_bytebuf_checksum_sensitive;
          prop_bytebuf_equal_bytewise ];
      ("stats",
       [ Alcotest.test_case "summary" `Quick test_stats_summary;
         Alcotest.test_case "histogram" `Quick test_stats_histogram;
         Alcotest.test_case "histogram powers of two" `Quick
           test_stats_histogram_powers_of_two;
         Alcotest.test_case "histogram empty" `Quick test_stats_histogram_empty;
         Alcotest.test_case "histogram p0/p100" `Quick
           test_stats_histogram_p0_p100;
         Alcotest.test_case "histogram pp" `Quick test_stats_histogram_pp;
         Alcotest.test_case "bandwidth" `Quick test_stats_bandwidth ]);
    ]
