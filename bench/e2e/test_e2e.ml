(* Unit tests for the benchmark's own logic: order statistics, seeded
   inputs, working-set sizes and the open-loop schedule. *)

let feq = Alcotest.float 1e-12

let test_percentile_rule () =
  Alcotest.(check int) "p99 of 1000 leaves 10" 10 (Quant.beyond ~n:1000 99.0);
  Alcotest.(check (option (float 0.0))) "1000 samples support p99" (Some 99.0)
    (Quant.tail_percentile 1000);
  Alcotest.(check (option (float 0.0))) "999 samples fall back to p95" (Some 95.0)
    (Quant.tail_percentile 999);
  Alcotest.(check (option (float 0.0))) "10000 samples support p99.9" (Some 99.9)
    (Quant.tail_percentile 10_000);
  Alcotest.(check (option (float 0.0))) "20 samples: the median" (Some 50.0)
    (Quant.tail_percentile 20);
  Alcotest.(check (option (float 0.0))) "19 samples: nothing" None (Quant.tail_percentile 19);
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "nearest-rank p99" 990.0 (Quant.percentile xs 99.0)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Quant.quartiles xs in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " q2") b q2;
    Alcotest.check feq (name ^ " q3") c q3
  in
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "three" [| 3.0; 1.0; 2.0 |] (1.0, 2.0, 3.0);
  check "two" [| 5.0; 1.0 |] (0.0, 3.0, 6.0);
  check "seven" [| 0.7; 1.9; 0.2; 4.4; 3.1; 2.8; 9.0 |] (0.7, 2.8, 4.4);
  Alcotest.check feq "spread" 1.0 (Quant.spread [| 1.0; 2.0; 3.0 |])

let test_bound () =
  let lower = Quant.within_bound ~better:Quant.Lower ~bound:0.1 ~base:100.0 in
  let higher = Quant.within_bound ~better:Quant.Higher ~bound:0.1 ~base:100.0 in
  Alcotest.(check bool) "lower: +10% is within" true (lower 110.0);
  Alcotest.(check bool) "lower: +11% is not" false (lower 111.0);
  Alcotest.(check bool) "lower: any gain is within" true (lower 10.0);
  Alcotest.(check bool) "higher: -10% is within" true (higher 90.0);
  Alcotest.(check bool) "higher: -11% is not" false (higher 89.0);
  Alcotest.(check bool) "higher: any gain is within" true (higher 1000.0)

let test_stream_determinism () =
  let days = Array.init 16 Fun.id in
  let s seed = Streams.serve_stream ~seed ~days 500 in
  Alcotest.(check bool) "same seed, same stream" true (s 7 = s 7);
  Alcotest.(check bool) "other seed, other stream" false (s 7 = s 8);
  Alcotest.(check bool) "same seed, same days" true
    (Streams.draw_days ~seed:3 16 = Streams.draw_days ~seed:3 16);
  Alcotest.(check bool) "other seed, other days" false
    (Streams.draw_days ~seed:3 16 = Streams.draw_days ~seed:4 16);
  let days = Streams.draw_days ~seed:3 16 in
  Alcotest.(check int) "16 distinct days" 16
    (List.length (List.sort_uniq compare (Array.to_list days)));
  Alcotest.(check bool) "days within 0-29" true (Array.for_all (fun d -> d >= 0 && d < 30) days)

let test_stratified () =
  let stream = Streams.serve_stream ~seed:5 ~days:[| 0 |] (192 * 3) in
  for b = 0 to 2 do
    let block = Array.sub stream (b * 192) 192 in
    let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 block in
    Alcotest.(check int) "a quarter run" 48 (count (fun r -> r.Streams.run));
    Array.iter
      (fun (r : Streams.request) ->
        let same (x : Streams.request) = x.program = r.program && x.method_ = r.method_ in
        Alcotest.(check int) "each pair four times" 4 (count same);
        Alcotest.(check int) "one run per pair" 1 (count (fun x -> same x && x.run)))
      block
  done

let test_figure_plan () =
  let days = Streams.draw_days ~seed:9 16 in
  let triples =
    List.concat_map
      (fun b ->
        Array.to_list
          (Array.map
             (fun (c : Streams.cell) ->
               (c.bench.Nisq_bench.Benchmarks.name, Nisq_compiler.Config.name c.config, c.day))
             (Streams.figure_batch ~days b)))
      (List.init 16 Fun.id)
  in
  Alcotest.(check int) "960 cells" 960 (List.length triples);
  Alcotest.(check int) "every (program, policy, day) once" 960
    (List.length (List.sort_uniq compare triples))

let test_working_set () =
  let keys w =
    let shape = Measure.serve_shape w in
    Streams.solver_keys (Streams.serve_stream ~seed:1 ~days:shape.Measure.days shape.Measure.stream_len)
  in
  Alcotest.(check bool) "serve-hot fits the 64-entry layout memo" true (keys "serve-hot" <= 64);
  Alcotest.(check bool) "serve-wide exceeds it" true (keys "serve-wide" > 64)

let test_schedule () =
  let sched = Streams.schedule ~rate:200.0 ~seconds:2.0 ~period:0.5 in
  let sends = Array.to_list sched |> List.filter_map (function t, Streams.Send i -> Some (t, i) | _ -> None) in
  let reloads = Array.to_list sched |> List.filter_map (function t, Streams.Reload k -> Some (t, k) | _ -> None) in
  Alcotest.(check int) "rate x seconds requests" 400 (List.length sends);
  List.iter (fun (t, i) -> Alcotest.check feq "request due at i / rate" (float_of_int i /. 200.0) t) sends;
  Alcotest.(check (list (pair (float 1e-12) int))) "a reload every period, none at the end"
    [ (0.5, 0); (1.0, 1); (1.5, 2) ] reloads;
  let dues = Array.map fst sched in
  Alcotest.(check bool) "due order" true
    (Array.for_all Fun.id (Array.init (Array.length dues - 1) (fun i -> dues.(i) <= dues.(i + 1))));
  (match Array.to_list sched |> List.filter (fun (t, _) -> t = 0.5) with
  | [ (_, Streams.Send 100); (_, Streams.Reload 0) ] -> ()
  | _ -> Alcotest.fail "a request due with a reload goes first");
  Alcotest.(check bool) "reloads alternate B, A, B" true
    (List.map Streams.reload_archive [ 0; 1; 2 ] = [ `B; `A; `B ])

let () =
  Alcotest.run "e2e"
    [
      ( "quant",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "bound check" `Quick test_bound;
        ] );
      ( "streams",
        [
          Alcotest.test_case "seeded determinism" `Quick test_stream_determinism;
          Alcotest.test_case "stratified blocks" `Quick test_stratified;
          Alcotest.test_case "figure plan covers each cell once" `Quick test_figure_plan;
          Alcotest.test_case "working-set sizes" `Quick test_working_set;
          Alcotest.test_case "open-loop schedule" `Quick test_schedule;
        ] );
    ]
