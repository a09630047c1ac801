type params = {
  period : float;
  sustain : int;
  eps_jain : float;
  eps_drop : float;
  eps_occ_frac : float;
  eps_occ_floor : float;
}

let default =
  {
    period = 0.5;
    sustain = 3;
    eps_jain = 0.05;
    eps_drop = 0.02;
    eps_occ_frac = 0.5;
    eps_occ_floor = 3.0;
  }

(* Canonical form: every field, fixed order, %g floats — used in sweep
   task keys, so equal parameter sets must render equally. *)
let params_to_string p =
  Printf.sprintf
    "period=%g,sustain=%d,eps-jain=%g,eps-drop=%g,eps-occ-frac=%g,eps-occ-floor=%g"
    p.period p.sustain p.eps_jain p.eps_drop p.eps_occ_frac p.eps_occ_floor

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let ( let* ) = Result.bind

let parse_pos_float ~what s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f && f > 0.0 -> Ok f
  | Some _ | None -> err "resil: %s must be a positive number (got %S)" what s

let params_of_spec spec =
  let parts =
    String.split_on_char ',' (String.trim spec)
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  List.fold_left
    (fun acc part ->
      let* p = acc in
      match String.index_opt part '=' with
      | None -> err "resil: expected key=value, got %S" part
      | Some i -> (
          let k = String.trim (String.sub part 0 i) in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          match k with
          | "period" ->
              let* period = parse_pos_float ~what:"period" v in
              Ok { p with period }
          | "sustain" -> (
              match int_of_string_opt (String.trim v) with
              | Some n when n >= 1 -> Ok { p with sustain = n }
              | Some _ | None ->
                  err "resil: sustain must be an integer >= 1 (got %S)" v)
          | "eps-jain" ->
              let* eps_jain = parse_pos_float ~what:"eps-jain" v in
              Ok { p with eps_jain }
          | "eps-drop" ->
              let* eps_drop = parse_pos_float ~what:"eps-drop" v in
              Ok { p with eps_drop }
          | "eps-occ-frac" ->
              let* eps_occ_frac = parse_pos_float ~what:"eps-occ-frac" v in
              Ok { p with eps_occ_frac }
          | "eps-occ-floor" ->
              let* eps_occ_floor = parse_pos_float ~what:"eps-occ-floor" v in
              Ok { p with eps_occ_floor }
          | _ ->
              err
                "resil: unknown key %S (known: period, sustain, eps-jain, \
                 eps-drop, eps-occ-frac, eps-occ-floor)"
                k))
    (Ok default) parts
