(* The repository benchmark.

     svsbench --workload W --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed, brings a 3-node group up
   over loopback TCP (several times, for the set-up figure), measures
   for S seconds, checks every delivery, and prints each metric by name
   and unit, then one JSON result line. With --trace 0 the metrics are
   the end-to-end ones; with --trace 1 the run measures S/2 untraced
   (the counters), S/2 with the node tracer and benchmark spans on, and
   then replays the same stream through each layer in isolation (the
   per-layer metrics). See svsbench/NOTES.md. *)

module Node = Svs_rt.Node
module Wire_codec = Svs_core.Wire_codec
module Annotation = Svs_obs.Annotation
module Trace = Svs_telemetry.Trace
module Heartbeat = Svs_detector.Heartbeat
module Synthetic = Svs_workload.Synthetic
module Stream = Svs_workload.Stream
open Util

let process_start = Unix.gettimeofday ()

let workloads = [ "steady"; "saturate"; "slow_member"; "churn" ]

(* Seeded 30-bit mix (splitmix-style finaliser). *)
let mix seed i =
  let x = ref ((seed * 0x9E3779B1) + (i * 0x85EBCA77) + 0x165667B1) in
  x := !x lxor (!x lsr 15);
  x := !x * 0x2C1B3C6D;
  x := !x lxor (!x lsr 12);
  x := !x * 0x297A2D39;
  x := !x lxor (!x lsr 15);
  !x land 0x3FFFFFFF

let steady_rate = 20_000.0

let churn_rate = 4_000.0

let slow_rate = 8_000.0

(* Every workload runs the detector with a fixed timeout, no increment:
   - The three nodes share one process, so a host stall stalls them all.
     On resuming, each node's suspicion check fires before its sockets
     are read: every node suspects its peers, and the publisher can be
     excluded, which stops it. A 0.5 s stall did that at the default
     350 ms. Workloads without crashes therefore wait 2 s, [churn] 1 s.
   - With the default increment, each restart of the same peer in
     [churn] counts as a false suspicion and ratchets its timeout up
     (see NOTES.md). *)
let config ~timeout =
  {
    Node.default_config with
    heartbeat = { Heartbeat.default_config with initial_timeout = timeout; timeout_increment = 0.0 };
  }

(* Small int payloads, no annotations: the plain VS data path. *)
let int_workload ~seed ~seconds ~mode ~churn ~config =
  let rate = match mode with Cluster.Open r -> r | Cluster.Closed _ -> 200_000.0 in
  {
    Cluster.codec = Wire_codec.int_codec;
    payload = (fun i -> mix seed i land 0xFFFF);
    ann = (fun _ -> Annotation.Unrelated);
    length = int_of_float (rate *. seconds *. 1.5) + 1000;
    window = 0;
    mode;
    pause = None;
    churn;
    config;
    counted = (match churn with Some _ -> [ 1 ] | None -> [ 1; 2 ]);
    latency_at = [ 1; 2 ];
  }

(* The paper's scenario: the seeded Quake-like stream with
   k-enumeration and batch-commit annotations, ~1 KiB payloads, one
   receiver pausing its reads on a schedule. *)
let slow_member ~seed ~seconds =
  let need = int_of_float (slow_rate *. seconds *. 1.5) + 1000 in
  let k = 64 in
  let trace = Synthetic.generate { Synthetic.default with seed; rounds = need } in
  let stream = Stream.of_trace ~k trace in
  let filler = String.init 1016 (fun j -> Char.chr (97 + (mix seed j mod 26))) in
  let payload i =
    let b = Bytes.of_string filler in
    Bytes.blit_string (Printf.sprintf "%07d|" (i mod 10_000_000)) 0 b 0 8;
    Bytes.unsafe_to_string b
  in
  {
    Cluster.codec = Wire_codec.string_codec;
    payload;
    ann = (fun i -> stream.(i mod Array.length stream).Stream.ann);
    length = min need (Array.length stream);
    window = k;
    mode = Cluster.Open slow_rate;
    pause = Some (2.0, 0.8);
    churn = None;
    config =
      {
        (* Also longer than a pause, so the paused member (which reads
           no heartbeats) never suspects its peers. *)
        (config ~timeout:2.0) with
        max_frame = 64 * 1024 * 1024;
        (* Watermarks sized to the pause, as in bench/overload.ml: the
           kernel's loopback buffers absorb the first megabytes, so the
           defaults would leave the user-space queue, and shedding,
           untouched. *)
        backpressure =
          { Svs_rt.Tcp_mesh.default_backpressure with soft = 32 * 1024; resume = 8 * 1024 };
      };
    counted = [ 1 ];
    latency_at = [ 1 ];
  }

let make_workload name ~seed ~seconds =
  match name with
  | "steady" ->
      `Int
        (int_workload ~seed ~seconds ~mode:(Cluster.Open steady_rate) ~churn:None
           ~config:(config ~timeout:2.0))
  | "saturate" ->
      `Int
        (int_workload ~seed ~seconds ~mode:(Cluster.Closed 1024) ~churn:None
           ~config:(config ~timeout:2.0))
  | "churn" ->
      `Int
        (int_workload ~seed ~seconds ~mode:(Cluster.Open churn_rate) ~churn:(Some 2.0)
           ~config:(config ~timeout:1.0))
  | "slow_member" -> `Str (slow_member ~seed ~seconds)
  | other -> failwith ("unknown workload " ^ other)

let print_metric mt = Printf.printf "metric %-28s %14.6f %s\n" mt.name mt.value mt.unit_

(* Node tracer records folded into per-message stage timestamps. *)
type stages = { mc : Fvec.t; tx : Fvec.t array; rx : Fvec.t array; dl : Fvec.t array }

let new_stages () =
  let a () = Array.init Cluster.n_nodes (fun _ -> Fvec.create ()) in
  { mc = Fvec.create (); tx = a (); rx = a (); dl = a () }

let set_first v sn t = if Float.is_nan (Fvec.get v sn) then Fvec.set v sn t

let fold_trace st tr =
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Trace.Multicast { node = 0; sn; _ } -> set_first st.mc sn r.Trace.time
      | Trace.Tx { node = 0; dst; sender = 0; sn; _ } -> set_first st.tx.(dst) sn r.Trace.time
      | Trace.Rx { node; sender = 0; sn; _ } -> set_first st.rx.(node) sn r.Trace.time
      | Trace.Deliver { node; sender = 0; sn; _ } -> set_first st.dl.(node) sn r.Trace.time
      | _ -> ())
    (Trace.records tr);
  Trace.clear tr

(* Median over messages and counted receivers of one stage, in ms. *)
let stage_p50 (w : _ Cluster.workload) ~published f =
  let v = Fvec.create () in
  for sn = 1 to published do
    List.iter (fun i -> Fvec.push v (f i sn)) w.Cluster.latency_at
  done;
  (summarize (Fvec.to_array v)).p50 *. 1e3

let ms x = x *. 1e3

let med_ms l = ms (median l)

let run (type p) (w : p Cluster.workload) ~name ~seed ~seconds ~trace =
  let root = Filename.concat "_build" (Printf.sprintf "svsbench-%d" (Unix.getpid ())) in
  mkdir_p root;
  Printf.printf "svsbench: workload=%s seed=%d seconds=%g trace=%d\n" name seed seconds
    (if trace then 1 else 0);
  Printf.printf "host: %s\n%!" (host_fingerprint ~wal_dir:root);
  let c, _, _ = Cluster.bring_up w ~root ~tag:"measured" ~tracer:Trace.nop ~spans:false in
  let first_ready = Unix.gettimeofday () -. process_start in
  let main_seconds = if trace then seconds /. 2.0 else seconds in
  let a = Cluster.measure c ~seconds:main_seconds ~probe_cycle:false in
  Cluster.shutdown c;
  (* Set-up: [reps] bring-ups after the window, in a warm process whose
     heap has stopped growing (early bring-ups also pay the page faults
     of heap growth, which vary with the host). The measured run leaves
     major-GC work behind; it is finished untimed first. The gated
     figure is the median process CPU time of a bring-up: its wall time
     also waits on the shared disk's journal commits (four fsyncs) and
     on the hypervisor, and spread twice as wide between runs. *)
  Gc.full_major ();
  let reps = 40 in
  let setups =
    List.init reps (fun k ->
        let c, wall, cpu =
          Cluster.bring_up w ~root ~tag:(Printf.sprintf "setup%d" k) ~tracer:Trace.nop ~spans:false
        in
        Cluster.shutdown c;
        (wall, cpu))
  in
  let setup_s = median (List.map snd setups) in
  let results = ref [ a ] in
  let report (r : Cluster.result) label =
    let l = r.Cluster.latency and s = r.Cluster.send_late in
    Printf.printf
      "%s: published %d in %.3f s\n\
      \  median window: %.0f msgs/s, delivery p50 %.3f ms p90 %.3f ms p99 %.3f ms p%g %.3f ms \
       (n=%d), cpu %.3f us/msg\n\
      \  send late p50 %.3f ms p99 %.3f ms (n=%d)\n"
      label r.Cluster.published r.Cluster.seconds r.Cluster.throughput (ms l.p50) (ms l.p90)
      (ms l.p99) (100.0 *. l.top_q) (ms l.top) l.count r.Cluster.cpu_us_per_msg (ms s.p50)
      (ms s.p99) s.count;
    Printf.printf "  window p50s (ms): %s\n"
      (String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" (ms x)) r.Cluster.window_p50s));
    Printf.printf "  window p99s (ms): %s\n"
      (String.concat " " (List.map (fun x -> Printf.sprintf "%.2f" (ms x)) r.Cluster.window_p99s));
    Printf.printf "%s: %d views installed\n" label (Hashtbl.length r.Cluster.rec_.Cluster.views);
    Printf.printf "%s: check exact %d failed, oracle %d violations, self-check %s, drained %b\n"
      label r.Cluster.check.Check.exact_v.Check.failed r.Cluster.check.Check.oracle_v.Check.failed
      (if r.Cluster.check.Check.self_check_ok then "caught the corrupted log" else "MISSED the corrupted log")
      r.Cluster.drained;
    List.iter (fun p -> Printf.printf "  problem: %s\n" p)
      (r.Cluster.check.Check.exact_v.Check.problems @ r.Cluster.check.Check.oracle_v.Check.problems)
  in
  report a (if trace then "untraced" else "run");
  (* Workload-specific figures, printed with every run. *)
  let cycles = a.Cluster.cycles in
  let extra =
    [
      m "delivery_p50_ms" "ms" (ms a.Cluster.latency.p50);
      m "delivery_p90_ms" "ms" (ms a.Cluster.latency.p90);
      m "delivery_p99_ms" "ms" (ms a.Cluster.latency.p99);
      m "refused_share" "ratio" a.Cluster.refused_share;
      m "send_late_p99_ms" "ms" (ms a.Cluster.send_late.p99);
    ]
    @ (if w.Cluster.pause <> None then
         [ m "catchup_ms" "ms" (med_ms a.Cluster.catchups) ]
       else [])
    @
    if w.Cluster.churn <> None then
      [
        m "outage_ms" "ms" (med_ms a.Cluster.outages);
        m "rejoin_ms" "ms" (med_ms (List.map (fun cy -> cy.Cluster.rejoin) cycles));
        m "churn_cycles" "count" (float_of_int (List.length cycles));
      ]
    else []
  in
  let e2e (r : Cluster.result) =
    [
      m "setup_s" "s" setup_s;
      m "throughput_msgs_s" "1/s" r.Cluster.throughput;
      m "cpu_us_per_msg" "us" r.Cluster.cpu_us_per_msg;
      m "peak_rss_mb" "MiB" r.Cluster.peak_rss;
    ]
  in
  List.iteri
    (fun i cy ->
      Printf.printf "cycle %d: detect %.1f ms, agree %.1f ms, join %.1f ms, rejoin %.1f ms\n" i
        (ms cy.Cluster.detect) (ms cy.Cluster.agree) (ms cy.Cluster.join) (ms cy.Cluster.rejoin))
    a.Cluster.cycles;
  Printf.printf
    "setup: median CPU %.4f s, median wall %.4f s over %d bring-ups; process start to first \
     group %.4f s\n"
    setup_s (median (List.map fst setups)) reps first_ready;
  List.iter print_metric extra;
  let metrics =
    if not trace then e2e a
    else begin
      (* Traced phase: node tracer on, benchmark spans on, plus one
         crash/restart probe of node 2 after the window unless the
         window had crash cycles of its own. *)
      let tr = Trace.memory () in
      let c2, _, _ = Cluster.bring_up w ~root ~tag:"traced" ~tracer:tr ~spans:true in
      let st = new_stages () in
      ignore
        (Svs_rt.Loop.every c2.Cluster.loop ~period:0.1 (fun () ->
             fold_trace st tr;
             true)
          : Svs_rt.Loop.timer);
      let b = Cluster.measure c2 ~seconds:main_seconds ~probe_cycle:true in
      fold_trace st tr;
      Cluster.shutdown c2;
      results := b :: !results;
      report b "traced";
      let ra = a.Cluster.rec_ and rb = b.Cluster.rec_ in
      let published = b.Cluster.published in
      let stage f = stage_p50 w ~published f in
      let enqueue = stage (fun i sn -> Fvec.get st.tx.(i) sn -. Fvec.get st.mc sn) in
      let wire = stage (fun i sn -> Fvec.get st.rx.(i) sn -. Fvec.get st.tx.(i) sn) in
      let pullw = stage (fun i sn -> Fvec.get st.dl.(i) sn -. Fvec.get st.rx.(i) sn) in
      let ctr name = List.assoc name a.Cluster.counters in
      let fpub = float_of_int (max 1 a.Cluster.published) in
      let per_1k x = x /. fpub *. 1000.0 in
      let frames_per_batch = ctr "batch_frames" /. Float.max 1.0 (ctr "batches") in
      let bytes_per_msg = ctr "bytes_out" /. fpub in
      let rate =
        match w.Cluster.mode with
        | Cluster.Open r -> r
        | Cluster.Closed _ -> a.Cluster.throughput
      in
      let n_replay = min 20_000 (w.Cluster.length - 1) in
      let layers =
        Layers.run w ~n:n_replay ~queue_depth:ra.Cluster.peak_queue
          ~backlog_frames:
            (int_of_float
               (float_of_int ra.Cluster.peak_pending
               /. Float.max 1.0 (bytes_per_msg /. float_of_int (Cluster.n_nodes - 1))))
          ~frames_per_batch:(int_of_float (Float.round frames_per_batch))
          ~per_sync:(int_of_float (rate *. 0.05))
          ~dir:(Filename.concat root "wal-replay")
      in
      let reconcile =
        Layers.per_message_us layers ~fanout:(Cluster.n_nodes - 1) /. a.Cluster.cpu_us_per_msg
      in
      let overhead = (b.Cluster.cpu_us_per_msg /. a.Cluster.cpu_us_per_msg -. 1.0) *. 100.0 in
      let mean_us v = mean (Array.to_list (Fvec.to_array v)) *. 1e6 in
      let purge_ratio site = ctr site /. (fpub *. float_of_int Cluster.n_nodes) in
      let bcycles = b.Cluster.cycles in
      [
        m "node.multicast_us" "us" (mean_us rb.Cluster.mc_span);
        m "node.deliver_us" "us" (mean_us rb.Cluster.dl_span);
        m "loop.timer_late_ms" "ms" (ms (summarize (Fvec.to_array rb.Cluster.tick_late)).p99);
        m "tcp_mesh.flushes_per_1k" "count" (per_1k (ctr "flushes"));
        m "tcp_mesh.frames_per_batch" "count" frames_per_batch;
        m "tcp_mesh.bytes_per_msg" "B" bytes_per_msg;
        m "tcp_mesh.peak_pending_kb" "KiB" (float_of_int ra.Cluster.peak_pending /. 1024.0);
        m "wal.syncs_per_1k" "count" (per_1k (ctr "wal_syncs"));
        m "purge.ratio_at_multicast" "ratio" (purge_ratio "purged_multicast");
        m "purge.ratio_at_receive" "ratio" (purge_ratio "purged_receive");
        m "purge.ratio_at_install" "ratio" (purge_ratio "purged_install");
        m "shed.frames_per_1k" "count" (per_1k (ctr "shed"));
        m "gc.minor_words_per_msg" "words" a.Cluster.minor_words_per_msg;
        m "gc.major_per_1k" "count" a.Cluster.major_per_1k;
        m "heartbeat.detect_ms" "ms" (med_ms (List.map (fun cy -> cy.Cluster.detect) bcycles));
        m "consensus.agree_ms" "ms" (med_ms (List.map (fun cy -> cy.Cluster.agree) bcycles));
        m "node.join_ms" "ms" (med_ms (List.map (fun cy -> cy.Cluster.join) bcycles));
        m "trace.enqueue_ms" "ms" enqueue;
        m "trace.wire_ms" "ms" wire;
        m "trace.pull_ms" "ms" pullw;
        m "wire_codec.encode_ns" "ns" layers.Layers.encode_ns;
        m "wire_codec.decode_ns" "ns" layers.Layers.decode_ns;
        m "wire_codec.bytes_per_msg" "B" layers.Layers.wire_bytes;
        m "protocol.ns_per_msg" "ns" layers.Layers.protocol_ns;
        m "protocol.minor_words_per_msg" "words" layers.Layers.protocol_words;
        m "purge_index.add_ns" "ns" layers.Layers.pi_add_ns;
        m "purge_index.plan_ns" "ns" layers.Layers.pi_plan_ns;
        m "shed.walk_ns" "ns" layers.Layers.shed_ns;
        m "tcp_mesh.iter_batch_ns" "ns" layers.Layers.iter_batch_ns;
        m "wal.append_ns" "ns" layers.Layers.wal_append_ns;
        m "wal.sync_us" "us" layers.Layers.wal_sync_us;
        m "wal.recover_ms" "ms" layers.Layers.wal_recover_ms;
        m "reconcile.ratio" "ratio" reconcile;
        m "trace.overhead_pct" "%" overhead;
      ]
    end
  in
  (* Delete the WALs and wait for the deletion's journal commit here,
     so that it does not land in the next run's first bring-ups. *)
  (try
     rm_rf root;
     let fd = Unix.openfile (Filename.dirname root) [ Unix.O_RDONLY ] 0 in
     Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
   with Unix.Unix_error _ | Sys_error _ -> ());
  List.iter print_metric metrics;
  let results = !results in
  let correct =
    List.for_all
      (fun (r : Cluster.result) ->
        Check.ok r.Cluster.check && r.Cluster.drained && r.Cluster.rec_.Cluster.seq_errors = 0
        && r.Cluster.published > 0)
      results
  in
  let failed =
    List.fold_left
      (fun acc (r : Cluster.result) ->
        acc + r.Cluster.check.Check.exact_v.Check.failed
        + r.Cluster.check.Check.oracle_v.Check.failed)
      0 results
  in
  let attempted = List.fold_left (fun acc (r : Cluster.result) -> acc + r.Cluster.published) 0 results in
  if not correct then Printf.printf "svsbench: OUTPUT CHECK FAILED\n";
  print_endline (result_json ~correct ~attempted ~failed metrics);
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "svsbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("svsbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  let trace = !trace = 1 in
  let code =
    match make_workload !workload ~seed:!seed ~seconds:!seconds with
    | `Int w -> run w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace
    | `Str w -> run w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace
  in
  exit code
