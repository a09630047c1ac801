type group = Engine | Net | Queueing | Tcp | Core | Guard | Resil

let all_groups = [ Engine; Net; Queueing; Tcp; Core; Guard; Resil ]
let n_groups = 7

let index = function
  | Engine -> 0
  | Net -> 1
  | Queueing -> 2
  | Tcp -> 3
  | Core -> 4
  | Guard -> 5
  | Resil -> 6

let bit g = 1 lsl index g

let group_name = function
  | Engine -> "engine"
  | Net -> "net"
  | Queueing -> "queueing"
  | Tcp -> "tcp"
  | Core -> "core"
  | Guard -> "guard"
  | Resil -> "resil"

let group_of_string = function
  | "engine" -> Some Engine
  | "net" -> Some Net
  | "queueing" -> Some Queueing
  | "tcp" -> Some Tcp
  | "core" -> Some Core
  | "guard" -> Some Guard
  | "resil" -> Some Resil
  | _ -> None

let groups_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "all" -> Ok all_groups
  | s ->
    let parts =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun p -> p <> "")
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match group_of_string p with
        | Some g -> go (g :: acc) rest
        | None ->
          Error
            (Printf.sprintf
               "unknown check group %S (expected all, engine, net, queueing, \
                tcp, core, guard, resil)"
               p))
    in
    go [] parts

type mode = Raise | Count

exception Violation of string

let max_messages = 64

type t = {
  mask : int;
  mode : mode;
  checks : int array;
  violations : int array;
  mutable messages : string list; (* newest first, capped *)
  mutable n_messages : int;
}

let make_state mask mode =
  {
    mask;
    mode;
    checks = Array.make n_groups 0;
    violations = Array.make n_groups 0;
    messages = [];
    n_messages = 0;
  }

let off = make_state 0 Count

let mask_of_groups groups = List.fold_left (fun m g -> m lor bit g) 0 groups

let create ?(mode = Raise) ?(groups = all_groups) () =
  make_state (mask_of_groups groups) mode

let[@inline] on t g = t.mask land bit g <> 0

let record_violation t g msg =
  t.violations.(index g) <- t.violations.(index g) + 1;
  if t.n_messages < max_messages then begin
    t.messages <- msg :: t.messages;
    t.n_messages <- t.n_messages + 1
  end;
  match t.mode with Raise -> raise (Violation msg) | Count -> ()

let violation t g msg =
  if on t g then begin
    t.checks.(index g) <- t.checks.(index g) + 1;
    record_violation t g (Printf.sprintf "[%s] %s" (group_name g) msg)
  end

let require t g cond msg =
  if on t g then begin
    t.checks.(index g) <- t.checks.(index g) + 1;
    if not cond then
      record_violation t g (Printf.sprintf "[%s] %s" (group_name g) (msg ()))
  end

let checks_run t g = t.checks.(index g)
let violations t g = t.violations.(index g)
let total_checks t = Array.fold_left ( + ) 0 t.checks
let total_violations t = Array.fold_left ( + ) 0 t.violations
let messages t = List.rev t.messages

let report t =
  let b = Buffer.create 256 in
  Buffer.add_string b "invariant checks:\n";
  List.iter
    (fun g ->
      if on t g || checks_run t g > 0 then
        Buffer.add_string b
          (Printf.sprintf "  %-9s %8d checks  %4d violations\n" (group_name g)
             (checks_run t g) (violations t g)))
    all_groups;
  Buffer.add_string b
    (Printf.sprintf "  total     %8d checks  %4d violations\n" (total_checks t)
       (total_violations t));
  List.iter (fun m -> Buffer.add_string b (Printf.sprintf "  ! %s\n" m))
    (messages t);
  Buffer.contents b
