type pool_state = {
  mutable last_data : float;
  mutable max_gap : float;  (* longest closed silent interval, 0 if none *)
}

type t = { pools : (int, pool_state) Hashtbl.t }

let create () = { pools = Hashtbl.create 64 }

let note_session_start t ~pool ~time =
  if not (Hashtbl.mem t.pools pool) then
    Hashtbl.replace t.pools pool
      { last_data = time; max_gap = 0.0 }

let note_data t ~pool ~time =
  match Hashtbl.find_opt t.pools pool with
  | None -> ()
  | Some st ->
      let gap = time -. st.last_data in
      if gap > st.max_gap then st.max_gap <- gap;
      st.last_data <- time

let max_hang t ~pool ~until =
  match Hashtbl.find_opt t.pools pool with
  | None -> 0.0
  | Some st ->
      if until > st.last_data then
        Float.max st.max_gap (until -. st.last_data)
      else st.max_gap

let fraction_with_hang t ~pools ~min_hang ~until =
  let n = Array.length pools in
  if n = 0 then 0.0
  else begin
    let hit = ref 0 in
    Array.iter
      (fun pool -> if max_hang t ~pool ~until >= min_hang then incr hit)
      pools;
    float_of_int !hit /. float_of_int n
  end
