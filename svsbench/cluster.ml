(* The end-to-end half of the benchmark: a 3-node SVS group over
   loopback TCP in one single-threaded process, driven through the
   public Svs_rt.Node / Loop API.

   Node 0 publishes the workload's stream; every node's deliveries are
   pulled when the node hints that some are ready, and the benchmark
   records, per message, the scheduled send time, the view it was
   multicast in, and the pull time at each receiver — exact latencies,
   no histogram buckets.
   Node 2 is the member the workloads disturb: it pauses its reads
   ([slow_member]) or crashes and restarts from its WAL ([churn]). *)

module Loop = Svs_rt.Loop
module Node = Svs_rt.Node
module Tcp_mesh = Svs_rt.Tcp_mesh
module Types = Svs_core.Types
module View = Svs_core.View
module Wire_codec = Svs_core.Wire_codec
module Annotation = Svs_obs.Annotation
module Msg_id = Svs_obs.Msg_id
module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace
open Util

let n_nodes = 3

let publisher = 0

let disturbed = 2

let tick = 0.0005

type mode = Open of float  (** msgs/s *) | Closed of int  (** window *)

type 'p workload = {
  codec : 'p Wire_codec.payload_codec;
  payload : int -> 'p;  (** Stream index -> payload. *)
  ann : int -> Annotation.t;  (** Stream index -> annotation. *)
  length : int;  (** Messages available in the stream. *)
  window : int;  (** Longest obsolescence distance in the stream. *)
  mode : mode;
  pause : (float * float) option;  (** Node 2 read pauses: period, length (s). *)
  churn : float option;  (** Node 2 crash/restart period (s). *)
  config : Node.config;
  counted : int list;  (** Receivers counted for throughput. *)
  latency_at : int list;
      (** Receivers whose pulls count for latency: a message's latency
          runs to the latest of their pulls (a receiver that never
          pulled it, crashed or purged, is skipped). *)
}

(* Run-level tail and CPU figures are medians over windows of this
   length, aligned to the disturbance period so that every window holds
   one pause or one crash cycle (and one stability-gossip round). *)
let window_length w =
  match (w.pause, w.churn) with
  | Some (period, _), _ -> period
  | None, Some period -> period
  | None, None -> 1.0

(* Stream index i travels as sequence number i + 1: sequence number 0
   is the bring-up probe, and [fence] the closing fence; both travel
   unannotated. *)
let ann_of_sn w ~fence sn =
  if sn = 0 || sn = fence then Annotation.Unrelated else w.ann (sn - 1)

(* What a run records. *)
type record = {
  plogs : Ivec.t array;
  pulls : Fvec.t array;  (** Pull time per sn, per node. *)
  frontier : int array;  (** Highest delivered sn per node. *)
  views : (int, View.t) Hashtbl.t;
  mutable disagreements : int;
  mc_view : Ivec.t;
  sched : Fvec.t;  (** Scheduled (open loop) or actual (closed loop) send time. *)
  late : Fvec.t;  (** Per message: send time minus scheduled time. *)
  mutable attempts : int;
  mutable refused : int;
  mutable seq_errors : int;
  mutable peak_queue : int;  (** Largest delivery-queue depth seen. *)
  mutable peak_pending : int;  (** Largest outbound backlog at the publisher. *)
  (* Bench-side spans (traced phase only). *)
  mc_span : Fvec.t;
  dl_span : Fvec.t;
  tick_late : Fvec.t;
  mutable restarted_at : float;  (** Last restart of node 2 (nan: none). *)
  mutable first_pull_after_restart : float;
}

let new_record () =
  {
    plogs = Array.init n_nodes (fun _ -> Ivec.create ());
    pulls = Array.init n_nodes (fun _ -> Fvec.create ());
    frontier = Array.make n_nodes (-1);
    views = Hashtbl.create 16;
    disagreements = 0;
    mc_view = Ivec.create ();
    sched = Fvec.create ();
    late = Fvec.create ();
    attempts = 0;
    refused = 0;
    seq_errors = 0;
    peak_queue = 0;
    peak_pending = 0;
    mc_span = Fvec.create ();
    dl_span = Fvec.create ();
    tick_late = Fvec.create ();
    restarted_at = nan;
    first_pull_after_restart = nan;
  }

let record_view r p (v : View.t) =
  (match Hashtbl.find_opt r.views v.View.id with
  | Some v0 when not (View.equal v0 v) -> r.disagreements <- r.disagreements + 1
  | Some _ -> ()
  | None -> Hashtbl.replace r.views v.View.id v);
  Ivec.push r.plogs.(p) (Check.view_event v)

let record_multicast r (d : _ Types.data) ~sched ~now =
  let sn = d.Types.id.Msg_id.sn in
  if sn <> Ivec.length r.mc_view then r.seq_errors <- r.seq_errors + 1;
  Ivec.push r.mc_view d.Types.view_id;
  Fvec.set r.sched sn sched;
  Fvec.set r.late sn (now -. sched)

type 'p cluster = {
  loop : Loop.t;
  addrs : Unix.sockaddr array;
  peers : (int * Unix.sockaddr) list;
  nodes : 'p Node.t array;
  dirs : string array;
  w : 'p workload;
  config : Node.config;
  metrics : Metrics.t;
  r : record;
  spans : bool;
  wake : (int -> unit) ref;  (** Node i's deliverable hint. *)
  refill : (unit -> unit) ref;  (** Runs after every pull: the closed loop's sender. *)
}

let create_node ~loop ~peers ~(w : _ workload) ~config ~dirs ~wake i ~listen_fd =
  Node.create loop ~me:i ~listen_fd ~peers ~payload_codec:w.codec ~config
    ~on_deliverable:(fun () -> !wake i)
    ~data_dir:dirs.(i) ()

let restart_node c i ~listen_fd =
  create_node ~loop:c.loop ~peers:c.peers ~w:c.w ~config:c.config ~dirs:c.dirs ~wake:c.wake i
    ~listen_fd

(* Pull everything node [i] has ready. *)
let pull c i =
  let node = c.nodes.(i) in
  let q = Node.pending node in
  if q > c.r.peak_queue then c.r.peak_queue <- q;
  let rec go () =
    let t0 = if c.spans then Unix.gettimeofday () else 0.0 in
    match Node.deliver node with
    | None -> ()
    | Some d ->
        let now = Unix.gettimeofday () in
        if c.spans then Fvec.push c.r.dl_span (now -. t0);
        (match d with
        | Types.Data d ->
            let sender = d.Types.id.Msg_id.sender and sn = d.Types.id.Msg_id.sn in
            Ivec.push c.r.plogs.(i) (Check.data_event ~sender ~sn);
            Fvec.set c.r.pulls.(i) sn now;
            if sn > c.r.frontier.(i) then c.r.frontier.(i) <- sn;
            if i = disturbed && Float.is_nan c.r.first_pull_after_restart
               && not (Float.is_nan c.r.restarted_at)
            then c.r.first_pull_after_restart <- now
        | Types.View_change v -> record_view c.r i v);
        go ()
  in
  go ();
  !(c.refill) ()

(* The deliverable hint fires inside the node's own processing; the
   pull runs from the loop right after it, once per burst of hints. *)
let pull_on_hint c =
  let armed = Array.make n_nodes false in
  fun i ->
    if not armed.(i) then begin
      armed.(i) <- true;
      ignore
        (Loop.after c.loop ~delay:0.0 (fun () ->
             armed.(i) <- false;
             pull c i)
          : Loop.timer)
    end

let loopback = Unix.inet_addr_loopback

(* Bring a fresh group up: listeners, nodes over fresh WAL directories,
   consumers; done when a probe multicast from node 0 has been pulled
   at every node. Returns the cluster and the bring-up's wall-clock
   and process CPU time. *)
let bring_up (w : _ workload) ~root ~tag ~tracer ~spans =
  let t0 = Unix.gettimeofday () and cpu0 = cpu_seconds () in
  let loop = Loop.create () in
  let listeners =
    Array.init n_nodes (fun _ -> Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)))
  in
  let addrs = Array.map snd listeners in
  let peers = List.init n_nodes (fun i -> (i, addrs.(i))) in
  let metrics = Metrics.create () in
  let config = { w.config with Node.metrics = Some metrics; tracer } in
  let dirs = Array.init n_nodes (fun i -> Filename.concat root (Printf.sprintf "%s-n%d" tag i)) in
  Array.iter rm_rf dirs;
  let r = new_record () in
  let initial = View.initial ~members:(List.init n_nodes Fun.id) in
  Array.iteri (fun p _ -> record_view r p initial) r.plogs;
  let wake = ref (fun _ -> ()) in
  let nodes =
    Array.mapi
      (fun i (fd, _) -> create_node ~loop ~peers ~w ~config ~dirs ~wake i ~listen_fd:fd)
      listeners
  in
  let c =
    {
      loop;
      addrs;
      peers;
      nodes;
      dirs;
      w;
      config;
      metrics;
      r;
      spans;
      wake;
      refill = ref ignore;
    }
  in
  wake := pull_on_hint c;
  let rec probe () =
    match Node.multicast c.nodes.(publisher) (w.payload 0) with
    | Ok d ->
        let now = Unix.gettimeofday () in
        record_multicast r d ~sched:now ~now
    | Error _ ->
        Loop.run ~timeout:tick loop;
        probe ()
  in
  probe ();
  Loop.run ~until:(fun () -> Array.for_all (fun f -> f >= 0) r.frontier) ~timeout:30.0 loop;
  (c, Unix.gettimeofday () -. t0, cpu_seconds () -. cpu0)

(* The WAL directories stay until the end of the run: deleting them
   here would make the next group's first fsync wait for the deletion's
   journal commit (on a filesystem mounted with [discard], for the
   discards too), and set-up would measure the disk. *)
let shutdown c =
  Array.iter Node.shutdown c.nodes;
  Loop.run ~timeout:0.05 c.loop

(* Crash/restart of node 2, as a state machine polled every tick. *)
type phase =
  | Up
  | Down of { t_crash : float; s0 : int; mutable t_suspect : float }
  | Excluded of { restart_at : float }
  | Rejoining of { t_restart : float }

type cycle = {
  t_crash : float;
  detect : float;  (** Crash to first survivor suspicion. *)
  agree : float;  (** Suspicion to the exclusion installed at both survivors. *)
  new_view : int;
  mutable join : float;  (** Restart to readmitted. *)
  mutable rejoin : float;  (** Restart to first delivery. *)
}

type churn = { mutable phase : phase; mutable cycles : cycle list }

let downtime = 0.1

let survivors_suspicions c = Node.suspicions c.nodes.(0) + Node.suspicions c.nodes.(1)

let crash c ch =
  Node.shutdown c.nodes.(disturbed);
  ch.phase <-
    Down { t_crash = Unix.gettimeofday (); s0 = survivors_suspicions c; t_suspect = nan }

let step_churn c ch =
  let now = Unix.gettimeofday () in
  match ch.phase with
  | Up -> ()
  | Down d ->
      if Float.is_nan d.t_suspect && survivors_suspicions c > d.s0 then d.t_suspect <- now;
      let v0 = Node.view c.nodes.(0) and v1 = Node.view c.nodes.(1) in
      if
        (not (View.mem disturbed v0))
        && (not (View.mem disturbed v1))
        && v0.View.id = v1.View.id
      then begin
        let t_suspect = if Float.is_nan d.t_suspect then now else d.t_suspect in
        ch.cycles <-
          {
            t_crash = d.t_crash;
            detect = t_suspect -. d.t_crash;
            agree = now -. t_suspect;
            new_view = v0.View.id;
            join = nan;
            rejoin = nan;
          }
          :: ch.cycles;
        ch.phase <- Excluded { restart_at = now +. downtime }
      end
  | Excluded { restart_at } ->
      if now >= restart_at then begin
        (* The restart includes WAL recovery inside [Node.create]. *)
        c.r.restarted_at <- now;
        c.r.first_pull_after_restart <- nan;
        let fd, _ = Tcp_mesh.listener c.addrs.(disturbed) in
        c.nodes.(disturbed) <- restart_node c disturbed ~listen_fd:fd;
        ch.phase <- Rejoining { t_restart = now }
      end
  | Rejoining { t_restart } -> (
      match ch.cycles with
      | cy :: _ ->
          if
            Float.is_nan cy.join
            && Node.is_member c.nodes.(disturbed)
            && View.mem disturbed (Node.view c.nodes.(0))
            && View.mem disturbed (Node.view c.nodes.(1))
          then cy.join <- now -. t_restart;
          if not (Float.is_nan cy.join) then ch.phase <- Up
      | [] -> ch.phase <- Up)

(* Restart to first delivery, once node 2 has pulled something. *)
let close_rejoin c ch =
  match ch.cycles with
  | cy :: _ when Float.is_nan cy.rejoin && not (Float.is_nan c.r.first_pull_after_restart) ->
      cy.rejoin <- c.r.first_pull_after_restart -. c.r.restarted_at
  | _ -> ()

(* Everything one measured run yields. Throughput, latency and CPU
   are medians over windows of each window's figure. *)
type result = {
  seconds : float;
  published : int;
  throughput : float;
  latency : summary;
  window_p50s : float list;
  window_p99s : float list;
  cpu_us_per_msg : float;
  send_late : summary;
  minor_words_per_msg : float;
  major_per_1k : float;
  refused_share : float;
  catchups : float list;
  cycles : cycle list;
  outages : float list;
  counters : (string * float) list;  (** Per-layer counters over the window. *)
  rec_ : record;
  check : Check.report;
  drained : bool;
  peak_rss : float;
}

let counter_snapshot c =
  let hist_sum_count name =
    List.fold_left
      (fun (s, n) (i : Metrics.instrument) ->
        match i.Metrics.value with
        | Metrics.Histogram h when i.Metrics.name = name ->
            (s +. Metrics.Histogram.sum h, n + Metrics.Histogram.count h)
        | _ -> (s, n))
      (0.0, 0) (Metrics.instruments c.metrics)
  in
  let bs, bn = hist_sum_count "tcp_batch_frames" in
  let purged site =
    Array.fold_left (fun acc n -> acc + Node.purged_at n site) 0 c.nodes
  in
  [
    ("flushes", float_of_int (Metrics.sum_counters c.metrics "tcp_flushes_total"));
    ("batch_frames", bs);
    ("batches", float_of_int bn);
    ("bytes_out", float_of_int (Metrics.sum_counters c.metrics "tcp_bytes_out_total"));
    ("wal_syncs", float_of_int (Metrics.sum_counters c.metrics "wal_syncs_total"));
    ("purged_multicast", float_of_int (purged Trace.At_multicast));
    ("purged_receive", float_of_int (purged Trace.At_receive));
    ("purged_install", float_of_int (purged Trace.At_install));
    ("shed", float_of_int (Array.fold_left (fun acc n -> acc + Node.shed_frames n) 0 c.nodes));
  ]

let diff_counters a b = List.map2 (fun (k, x) (_, y) -> (k, y -. x)) a b

let measure c ~seconds ~probe_cycle =
  let w = c.w and r = c.r in
  let pub = c.nodes.(publisher) in
  let next_ix = ref 1 in
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. seconds in
  let cpu0 = cpu_seconds () and gc0 = Gc.quick_stat () in
  let counters0 = counter_snapshot c in
  let measuring = ref true in
  let last_tick_end = ref nan in
  let win = window_length w in
  let next_window = ref (t_start +. win) in
  let cpu_windows = ref [] and window_start = ref (cpu0, 1, t_start) in
  let tput_windows = ref [] and window_frontier = ref (Array.copy r.frontier) in
  let slowest_advance f0 =
    List.fold_left (fun acc i -> min acc (r.frontier.(i) - f0.(i))) max_int w.counted
  in
  let try_send ~sched ~now =
    let ix = !next_ix - 1 in
    r.attempts <- r.attempts + 1;
    let t0 = if c.spans then Unix.gettimeofday () else 0.0 in
    let res = Node.try_multicast pub ~ann:(w.ann ix) (w.payload ix) in
    if c.spans then Fvec.push r.mc_span (Unix.gettimeofday () -. t0);
    match res with
    | Ok d ->
        record_multicast r d ~sched ~now;
        incr next_ix;
        true
    | Error _ ->
        r.refused <- r.refused + 1;
        false
  in
  let slowest_frontier () =
    List.fold_left (fun acc i -> min acc r.frontier.(i)) max_int w.counted
  in
  (* The closed loop sends as soon as the slowest receiver's pull opens
     room in the window, not on the generator's tick: capacity is then
     the program's, with no wait for the next tick in it. A refused
     multicast is retried on the next pull or tick. *)
  (match w.mode with
  | Closed window ->
      c.refill :=
        fun () ->
          if !measuring then begin
            let now = Unix.gettimeofday () in
            let go = ref true in
            while !go && !next_ix < w.length && !next_ix - 1 - slowest_frontier () < window do
              go := try_send ~sched:now ~now
            done
          end
  | Open _ -> ());
  ignore
    (Loop.every c.loop ~period:tick (fun () ->
         let now = Unix.gettimeofday () in
         if c.spans && not (Float.is_nan !last_tick_end) then
           Fvec.push r.tick_late (now -. (!last_tick_end +. tick));
         if !measuring && now >= !next_window then begin
           let cpu = cpu_seconds () and ix = !next_ix in
           let c0, ix0, t0 = !window_start in
           if ix > ix0 then cpu_windows := ((cpu -. c0) /. float_of_int (ix - ix0)) :: !cpu_windows;
           tput_windows := (float_of_int (slowest_advance !window_frontier) /. (now -. t0)) :: !tput_windows;
           window_start := (cpu, ix, now);
           window_frontier := Array.copy r.frontier;
           next_window := !next_window +. win
         end;
         if now >= deadline then measuring := false;
         (if !measuring then
            match w.mode with
            | Open rate ->
                let due = min w.length (1 + int_of_float ((now -. t_start) *. rate)) in
                let go = ref true in
                while !go && !next_ix < due do
                  let sched = t_start +. (float_of_int (!next_ix - 1) /. rate) in
                  go := try_send ~sched ~now
                done
            | Closed _ -> !(c.refill) ());
         let p = Node.pending_to pub ~dst:disturbed in
         if p > r.peak_pending then r.peak_pending <- p;
         last_tick_end := Unix.gettimeofday ();
         true)
      : Loop.timer);
  (* Disturbances of node 2. *)
  let ch = { phase = Up; cycles = [] } in
  let catchups = ref [] in
  (match w.pause with
  | Some (period, length) ->
      let paused = ref false and t_resume = ref nan and target = ref 0 in
      let next_pause = ref (t_start +. (period /. 2.0)) in
      ignore
        (Loop.every c.loop ~period:tick (fun () ->
             let now = Unix.gettimeofday () in
             if !paused && (now >= !next_pause +. length || not !measuring) then begin
               Node.resume_reads c.nodes.(disturbed);
               paused := false;
               t_resume := now;
               target := Ivec.length r.mc_view - 1;
               next_pause := !next_pause +. period
             end
             else if (not !paused) && !measuring && now >= !next_pause && now +. length < deadline
             then begin
               Node.pause_reads c.nodes.(disturbed);
               paused := true
             end;
             if (not (Float.is_nan !t_resume)) && r.frontier.(disturbed) >= !target then begin
               catchups := (now -. !t_resume) :: !catchups;
               t_resume := nan
             end;
             !measuring || !paused || not (Float.is_nan !t_resume))
          : Loop.timer)
  | None -> ());
  let next_crash = ref (match w.churn with Some p -> t_start +. (p /. 2.0) | None -> infinity) in
  let start_churn_timer () =
    Loop.every c.loop ~period:tick (fun () ->
        let now = Unix.gettimeofday () in
        (match (ch.phase, w.churn) with
        | Up, Some period when !measuring && now >= !next_crash && now +. 1.5 < deadline ->
            next_crash := !next_crash +. period;
            crash c ch
        | _ -> ());
        step_churn c ch;
        close_rejoin c ch;
        true)
  in
  let churn_timer = ref (Option.map (fun _ -> start_churn_timer ()) w.churn) in
  Loop.run ~until:(fun () -> not !measuring) ~timeout:(seconds +. 5.0) c.loop;
  c.refill := ignore;
  let t_end = Unix.gettimeofday () in
  let gc1 = Gc.quick_stat () in
  let counters = diff_counters counters0 (counter_snapshot c) in
  (* Less the recording arrays: otherwise a faster program would read
     as a bigger one, having carried more messages. *)
  let recorded =
    let f = Fvec.bytes and i = Ivec.bytes in
    Array.fold_left (fun acc v -> acc + i v) 0 r.plogs
    + Array.fold_left (fun acc v -> acc + f v) 0 r.pulls
    + i r.mc_view + f r.sched + f r.late + f r.mc_span + f r.dl_span + f r.tick_late
  in
  let peak_rss = peak_rss_mb ~less:recorded in
  let published = !next_ix - 1 in
  (* Settle: finish an open crash cycle; with [probe_cycle], crash and
     restart node 2 once if the window had no cycle of its own; then a
     fence multicast pulled everywhere. *)
  let settle_until f timeout =
    Loop.run ~until:f ~timeout c.loop;
    f ()
  in
  let cycle_done () = ch.phase = Up in
  let ok = settle_until cycle_done 30.0 in
  let ok =
    ok
    && ((not probe_cycle) || ch.cycles <> []
       || begin
            crash c ch;
            churn_timer := Some (start_churn_timer ());
            settle_until cycle_done 30.0
          end)
  in
  Option.iter Loop.cancel !churn_timer;
  let fence_sn = ref (-1) in
  let rec fence tries =
    if tries > 0 then
      match Node.try_multicast pub ~ann:Annotation.Unrelated (w.payload 0) with
      | Ok d ->
          let now = Unix.gettimeofday () in
          record_multicast r d ~sched:now ~now;
          fence_sn := d.Types.id.Msg_id.sn
      | Error _ ->
          Loop.run ~timeout:0.01 c.loop;
          fence (tries - 1)
  in
  if ok then fence 3000;
  let drained =
    ok && !fence_sn >= 0
    && settle_until (fun () -> Array.for_all (fun f -> f >= !fence_sn) r.frontier) 30.0
  in
  if not drained then
    Array.iteri
      (fun i n ->
        let v = Node.view n in
        Printf.printf "  not drained: node %d %s in view %d {%s}, %d pending, frontier %d, %d suspicions\n"
          i (Node.status_label n) v.View.id
          (String.concat "," (List.map string_of_int v.View.members))
          (Node.pending n) r.frontier.(i) (Node.suspicions n))
      c.nodes;
  close_rejoin c ch;
  let n_windows = max 1 (int_of_float (Float.round (seconds /. win))) in
  let by_window = Array.init n_windows (fun _ -> Fvec.create ()) in
  for sn = 1 to published do
    let latest =
      List.fold_left
        (fun acc i ->
          let t = Fvec.get r.pulls.(i) sn in
          if Float.is_nan t then acc else Float.max acc t)
        neg_infinity w.latency_at
    in
    if Float.is_finite latest then begin
      let k = int_of_float ((Fvec.get r.sched sn -. t_start) /. win) in
      Fvec.push by_window.(max 0 (min (n_windows - 1) k)) (latest -. Fvec.get r.sched sn)
    end
  done;
  let windows =
    List.filter_map
      (fun v -> if Fvec.length v >= 100 then Some (Fvec.to_array v) else None)
      (Array.to_list by_window)
  in
  let outages =
    List.filter_map
      (fun cy ->
        let rec first sn =
          if sn >= Ivec.length r.mc_view then None
          else if Ivec.get r.mc_view sn = cy.new_view then Some sn
          else first (sn + 1)
        in
        match first 0 with
        | Some sn ->
            let t = Float.max (Fvec.get r.pulls.(0) sn) (Fvec.get r.pulls.(1) sn) in
            if Float.is_finite t then Some (t -. cy.t_crash) else None
        | None -> None)
      ch.cycles
  in
  let fpub = float_of_int (max 1 published) in
  let log =
    {
      Check.mc_view = r.mc_view;
      ann = ann_of_sn w ~fence:!fence_sn;
      views = r.views;
      plogs = r.plogs;
      alive = Array.make n_nodes drained;
      window = w.window;
      disagreements = r.disagreements;
    }
  in
  let check = Check.run log in
  {
    seconds = t_end -. t_start;
    published;
    throughput = median !tput_windows;
    latency = summarize_windows windows;
    window_p50s = List.map (fun a -> (summarize a).p50) windows;
    window_p99s = List.map (fun a -> (summarize a).p99) windows;
    cpu_us_per_msg = median !cpu_windows *. 1e6;
    send_late =
      summarize (Array.sub (Fvec.to_array r.late) 1 (max 0 (min published (Fvec.length r.late - 1))));
    minor_words_per_msg = (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. fpub;
    major_per_1k =
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. fpub *. 1000.0;
    refused_share = float_of_int r.refused /. float_of_int (max 1 r.attempts);
    catchups = !catchups;
    cycles = List.rev ch.cycles;
    outages;
    counters;
    rec_ = r;
    check;
    drained;
    peak_rss;
  }
