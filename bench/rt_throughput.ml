(* End-to-end runtime throughput bench: a 3-node SVS group over real
   loopback TCP in one process, driven closed-loop (the publisher keeps
   a bounded number of multicasts outstanding ahead of the slowest
   receiver, so the measured rate is what the stack sustains, not a
   configured publish rate).

   Two series are measured back to back:

     flush-per-send  every multicast is framed and written to the
                     kernel immediately (one write syscall per message
                     per peer)
     batched         outbound frames coalesce per peer per flush tick
                     into one batch frame (the default data path)

   The headline speedup is batched over flush-per-send, both measured
   in the same run on the same host. Both series share the zero-copy
   codec and the WAL group commit, so the ratio isolates write
   batching.

   Reported per series: msgs/s sustained at the receivers, p50/p99
   acceptance-to-delivery latency, and allocation cost per message
   (process-wide Gc.minor_words delta / messages published).

   Usage: rt_throughput [--smoke] [--duration S] [--json FILE]
          [--window N] [--payload-items N]

   The JSON payload is the root-level BENCH_rt_throughput.json of the
   perf trajectory (see scripts/bench_rt.sh and `scripts/ci.sh
   bench-smoke`). *)

module Loop = Svs_rt.Loop
module Node = Svs_rt.Node
module Tcp_mesh = Svs_rt.Tcp_mesh
module Types = Svs_core.Types
module Wire_codec = Svs_core.Wire_codec
module Metrics = Svs_telemetry.Metrics

let loopback = Unix.inet_addr_loopback

let n_nodes = 3

let fast_heartbeats =
  {
    Svs_detector.Heartbeat.period = 0.1;
    initial_timeout = 2.0;
    timeout_increment = 0.5;
    max_timeout = 5.0;
  }

type series = {
  label : string;
  msgs_per_s : float;
  published : int;
  p50_ms : float;
  p99_ms : float;
  minor_words_per_msg : float;
  flushes : int;
  wal_syncs : int;
}

(* One measured run: fresh sockets, fresh nodes, fresh WALs. Returns
   the receiver-side sustained rate and latency percentiles. *)
let run_series ~label ~flush_interval ~duration ~window ~data_root =
  let loop = Loop.create () in
  let listeners =
    List.init n_nodes (fun i ->
        let fd, addr = Tcp_mesh.listener (Unix.ADDR_INET (loopback, 0)) in
        (i, fd, addr))
  in
  let peers = List.map (fun (i, _, addr) -> (i, addr)) listeners in
  let metrics = Metrics.create () in
  let config =
    {
      Node.default_config with
      heartbeat = fast_heartbeats;
      stability_period = Some 0.5;
      metrics = Some metrics;
      flush_interval;
    }
  in
  let delivered = Array.make n_nodes 0 in
  let nodes =
    Array.of_list
      (List.map
         (fun (i, fd, _) ->
           let data_dir = Filename.concat data_root (Printf.sprintf "%s-n%d" label i) in
           Node.create loop ~me:i ~listen_fd:fd ~peers
             ~payload_codec:Wire_codec.int_codec ~config ~data_dir ())
         listeners)
  in
  Array.iteri
    (fun i node ->
      ignore
        (Loop.every loop ~period:0.0005 (fun () ->
             let rec go () =
               match Node.deliver node with
               | None -> ()
               | Some (Types.Data _) ->
                   delivered.(i) <- delivered.(i) + 1;
                   go ()
               | Some (Types.View_change _) -> go ()
             in
             go ();
             true)
          : Loop.timer))
    nodes;
  (* Let the mesh connect before measuring. *)
  Loop.run
    ~until:(fun () ->
      Array.for_all (fun node -> List.length (Node.view node).Svs_core.View.members = n_nodes) nodes)
    ~timeout:5.0 loop;
  let published = ref 0 in
  let min_remote_delivered () =
    let m = ref max_int in
    for i = 1 to n_nodes - 1 do
      if delivered.(i) < !m then m := delivered.(i)
    done;
    !m
  in
  let t_start = ref 0.0 in
  let deadline = ref infinity in
  let words0 = ref 0.0 in
  ignore
    (Loop.after loop ~delay:0.05 (fun () ->
         t_start := Loop.now loop;
         deadline := !t_start +. duration;
         words0 := Gc.minor_words ()));
  (* Closed-loop publisher: keep at most [window] messages ahead of the
     slowest receiver. *)
  ignore
    (Loop.every loop ~period:0.0005 (fun () ->
         if !t_start > 0.0 && Loop.now loop < !deadline then begin
           let floor = min_remote_delivered () in
           let burst = ref 0 in
           while !published - floor < window && !burst < window do
             incr burst;
             match Node.multicast nodes.(0) !published with
             | Ok _ -> incr published
             | Error _ -> burst := window
           done
         end;
         true)
      : Loop.timer);
  Loop.run
    ~until:(fun () ->
      !t_start > 0.0 && Loop.now loop >= !deadline
      && (min_remote_delivered () >= !published || Loop.now loop >= !deadline +. 5.0))
    ~timeout:(duration +. 30.0) loop;
  let words1 = Gc.minor_words () in
  let elapsed = Loop.now loop -. !t_start in
  let drained = min_remote_delivered () in
  let msgs_per_s = float_of_int drained /. elapsed in
  (* Worst-case latency percentiles across the remote receivers. *)
  let pct q =
    let worst = ref 0.0 in
    for i = 1 to n_nodes - 1 do
      let h = Node.delivery_latency nodes.(i) in
      if Metrics.Histogram.count h > 0 then begin
        let v = Metrics.Histogram.quantile h q in
        if v > !worst then worst := v
      end
    done;
    !worst *. 1000.0
  in
  let p50_ms = pct 0.5 and p99_ms = pct 0.99 in
  let minor_words_per_msg =
    if !published = 0 then 0.0 else (words1 -. !words0) /. float_of_int !published
  in
  let flushes = Metrics.sum_counters metrics "tcp_flushes_total" in
  let wal_syncs = Metrics.sum_counters metrics "wal_syncs_total" in
  Array.iter Node.shutdown nodes;
  Loop.run ~timeout:0.1 loop;
  {
    label;
    msgs_per_s;
    published = !published;
    p50_ms;
    p99_ms;
    minor_words_per_msg;
    flushes;
    wal_syncs;
  }

let pp_series s =
  Printf.printf
    "  %-16s %10.0f msgs/s  p50 %6.2f ms  p99 %6.2f ms  %8.1f minor words/msg  (%d published, %d flushes, %d wal syncs)\n%!"
    s.label s.msgs_per_s s.p50_ms s.p99_ms s.minor_words_per_msg s.published s.flushes
    s.wal_syncs

let series_json s =
  Printf.sprintf
    "    { \"name\": \"%s\", \"msgs_per_s\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
     \"minor_words_per_msg\": %.1f, \"published\": %d, \"tcp_flushes\": %d, \"wal_syncs\": %d }"
    s.label s.msgs_per_s s.p50_ms s.p99_ms s.minor_words_per_msg s.published s.flushes
    s.wal_syncs

let write_json ~path ~duration all =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"rt_throughput\",\n\
    \  \"workload\": \"3-node SVS group over loopback TCP, closed-loop small int multicasts \
     (durable WAL on), receiver-side sustained rate\",\n\
    \  \"duration_s\": %.1f,\n\
    \  \"speedup_note\": \"batched msgs/s over flush-per-send msgs/s, both measured in this \
     run\",\n\
    \  \"series\": [\n%s\n  ]%s\n}\n"
    duration
    (String.concat ",\n" (List.map series_json all))
    (match all with
    | [ base; opt ] when base.msgs_per_s > 0.0 ->
        Printf.sprintf ",\n  \"speedup\": %.2f" (opt.msgs_per_s /. base.msgs_per_s)
    | _ -> "");
  close_out oc

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  let smoke = ref false in
  let duration = ref 4.0 in
  let json = ref None in
  let window = ref 1024 in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--duration" :: v :: rest ->
        duration := float_of_string v;
        parse rest
    | "--json" :: v :: rest ->
        json := Some v;
        parse rest
    | "--window" :: v :: rest ->
        window := int_of_string v;
        parse rest
    | _ :: rest -> parse rest
  in
  parse (List.tl args);
  if !smoke then duration := Float.min !duration 1.0;
  let data_root = Filename.temp_file "svs-bench-rt" "" in
  Sys.remove data_root;
  Unix.mkdir data_root 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf data_root)
    (fun () ->
      Printf.printf "rt_throughput: %d nodes, %.1fs per series, window %d%s\n%!" n_nodes
        !duration !window
        (if !smoke then " (smoke)" else "");
      let base =
        run_series ~label:"flush-per-send" ~flush_interval:0.0 ~duration:!duration
          ~window:!window ~data_root
      in
      pp_series base;
      let opt =
        run_series ~label:"batched" ~flush_interval:0.001 ~duration:!duration
          ~window:!window ~data_root
      in
      pp_series opt;
      Printf.printf "  speedup (batched / flush-per-send): %.2fx\n%!"
        (opt.msgs_per_s /. base.msgs_per_s);
      match !json with
      | None -> ()
      | Some path ->
          write_json ~path ~duration:!duration [ base; opt ];
          Printf.printf "  wrote %s\n%!" path)
