type sink = Channel of out_channel | Buf of Buffer.t

(* The sink is domain-local: a worker domain capturing a task's output
   into a buffer never affects what other domains (or the main domain)
   print. The default everywhere is stdout, so code written against
   this module behaves exactly like Printf.printf until somebody
   installs a capture buffer. *)
let sink_key : sink Domain.DLS.key = Domain.DLS.new_key (fun () -> Channel stdout)

let string s =
  match Domain.DLS.get sink_key with
  | Channel oc -> output_string oc s
  | Buf b -> Buffer.add_string b s

let printf fmt = Printf.ksprintf string fmt

let newline () = string "\n"

let with_buffer f =
  let buf = Buffer.create 1024 in
  let old = Domain.DLS.get sink_key in
  Domain.DLS.set sink_key (Buf buf);
  let v =
    Fun.protect ~finally:(fun () -> Domain.DLS.set sink_key old) f
  in
  (Buffer.contents buf, v)
