(* The metric contract in BENCHMARK.json: names, units, directions and
   bounds, and the check that a measurement reports exactly those. *)

module Json = Nisq_obs.Json

type metric = {
  name : string;
  unit_ : string;
  better : Quant.better;
  bound : float option;  (** end-to-end metrics only *)
}

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let fail path msg = failwith (Printf.sprintf "%s: %s" path msg)

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let json =
    match Json.of_string text with Ok j -> j | Error e -> fail path e
  in
  let list key =
    match Json.member key json with
    | Some (Json.List l) -> l
    | _ -> fail path ("missing list " ^ key)
  in
  let str key j =
    match Json.member key j with
    | Some (Json.String s) -> s
    | _ -> fail path ("missing string " ^ key)
  in
  let metric j =
    {
      name = str "name" j;
      unit_ = str "unit" j;
      better = Quant.better_of_string (str "better" j);
      bound =
        (match Json.member "bound" j with
        | Some (Json.Float b) -> Some b
        | Some (Json.Int b) -> Some (float_of_int b)
        | _ -> None);
    }
  in
  {
    workloads = List.map (str "name") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

(* Every metric the pass must report, by name and unit, and nothing else. *)
let check spec ~traced (reported : (string * string) list) =
  let expected = if traced then spec.per_layer else spec.end_to_end in
  let missing =
    List.filter_map
      (fun m ->
        match List.assoc_opt m.name reported with
        | None -> Some ("missing metric " ^ m.name)
        | Some u when u <> m.unit_ ->
            Some (Printf.sprintf "%s has unit %s, BENCHMARK.json says %s" m.name u m.unit_)
        | Some _ -> None)
      expected
  in
  let extra =
    List.filter_map
      (fun (name, _) ->
        if List.exists (fun m -> m.name = name) expected then None
        else Some ("metric not in BENCHMARK.json: " ^ name))
      reported
  in
  missing @ extra
